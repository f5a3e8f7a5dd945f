package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: a tail read from fewer than ten worse samples is mostly noise.
const tailBeyond = 10

// tailCandidates are the percentiles tried, highest first.
var tailCandidates = func() []float64 {
	qs := []float64{99.99, 99.9}
	for q := 99; q >= 50; q-- {
		qs = append(qs, float64(q))
	}
	return qs
}()

// rankIndex is the nearest-rank index of percentile q in n sorted samples.
func rankIndex(q float64, n int) int {
	k := int(math.Ceil(q*float64(n)/100-1e-9)) - 1 // the epsilon absorbs q/100 rounding
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// summary is a latency distribution: its median and its tail, the highest
// percentile with at least tailBeyond samples beyond it. With too few
// samples for any percentile from p50 up, the tail is the maximum and
// tailLabel says so.
type summary struct {
	n         int
	p50       time.Duration
	tail      time.Duration
	tailLabel string
}

func summarize(samples []time.Duration) summary {
	n := len(samples)
	if n == 0 {
		return summary{tailLabel: "none"}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := summary{n: n, p50: s[rankIndex(50, n)], tail: s[n-1], tailLabel: "max"}
	for _, q := range tailCandidates {
		k := rankIndex(q, n)
		if n-1-k >= tailBeyond {
			out.tail, out.tailLabel = s[k], fmt.Sprintf("p%g", q)
			break
		}
	}
	return out
}

// median of a non-empty sample set (mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
