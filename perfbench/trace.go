package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"surfstitch/internal/obs"
)

// tracing collects the spans of one traced run in memory; flush writes them
// out once the run is over, so no file I/O happens while spans are timed.
type tracing struct {
	buf    bytes.Buffer
	tracer *obs.Tracer
}

func newTracing() *tracing {
	t := &tracing{}
	t.tracer = obs.NewTracer(&t.buf)
	return t
}

// attach returns ctx carrying the tracer, so obs.StartSpan below it records.
func (t *tracing) attach(ctx context.Context) context.Context {
	return obs.ContextWithTracer(ctx, t.tracer)
}

// flush writes the span log as JSON Lines to path.
func (t *tracing) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, t.buf.Bytes(), 0o644)
}

// spanRec mirrors the JSON Lines record obs.Tracer writes.
type spanRec struct {
	Name       string         `json:"name"`
	ID         int64          `json:"id"`
	Parent     int64          `json:"parent"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Attrs      map[string]any `json:"attrs"`
}

func (s spanRec) end() time.Time           { return s.Start.Add(s.dur()) }
func (s spanRec) dur() time.Duration       { return time.Duration(s.DurationNS) }
func (s spanRec) attr(key string) float64  { v, _ := s.Attrs[key].(float64); return v }
func (s spanRec) attrInt(key string) int64 { return int64(s.attr(key)) }

func parseSpans(data []byte) ([]spanRec, error) {
	var out []spanRec
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var s spanRec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("span log: %w", err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// selfTimes maps span ID to its self time: its duration minus the part of
// its interval that its children cover. Children of one span may overlap
// (chunks run on several workers), so the covered part is the length of
// the union of the child intervals, clipped to the parent's interval.
func selfTimes(spans []spanRec) map[int64]time.Duration {
	byID := make(map[int64]spanRec, len(spans))
	children := map[int64][]spanRec{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.end(), children[s.ID])
	}
	return out
}

// covered is the length of the union of the child intervals inside
// [lo, hi).
func covered(lo, hi time.Time, kids []spanRec) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.end()
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerAgg is the per-span-name aggregate of a trace.
type layerAgg struct {
	count int
	total time.Duration
	self  time.Duration
	durs  []time.Duration
}

func aggregate(spans []spanRec) map[string]*layerAgg {
	self := selfTimes(spans)
	out := map[string]*layerAgg{}
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &layerAgg{}
			out[s.Name] = a
		}
		a.count++
		a.total += s.dur()
		a.self += self[s.ID]
		a.durs = append(a.durs, s.dur())
	}
	return out
}
