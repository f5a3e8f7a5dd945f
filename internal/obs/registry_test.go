package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total"); again != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("speed")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3.0 {
		t.Errorf("gauge = %g, want 3", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveN(2, 3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments retained state")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry exposition: %v", err)
	}
}

func TestKindConflictStaysSafe(t *testing.T) {
	r := NewRegistry()
	r.Counter("name").Inc()
	// Asking for the same name as a gauge is a programming error; it must
	// not panic and must not corrupt the registered counter.
	g := r.Gauge("name")
	g.Set(99)
	if got := r.Counter("name").Value(); got != 1 {
		t.Errorf("registered counter corrupted: %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("k", LinearBuckets(0, 1, 4)) // bounds 0,1,2,3 (+Inf)
	h.Observe(0)
	h.ObserveN(2, 3)
	h.Observe(10) // overflow bucket
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 16 {
		t.Errorf("sum = %g, want 16", got)
	}
	snap := r.Snapshot()
	if snap[`k_bucket{le="0"}`] != 1 {
		t.Errorf("le=0 bucket = %g, want 1", snap[`k_bucket{le="0"}`])
	}
	if snap[`k_bucket{le="2"}`] != 4 { // cumulative: 1 + 3
		t.Errorf("le=2 bucket = %g, want 4", snap[`k_bucket{le="2"}`])
	}
	if snap[`k_bucket{le="+Inf"}`] != 5 {
		t.Errorf("+Inf bucket = %g, want 5", snap[`k_bucket{le="+Inf"}`])
	}
	if snap["k_count"] != 5 || snap["k_sum"] != 16 {
		t.Errorf("count/sum = %g/%g", snap["k_count"], snap["k_sum"])
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("ExponentialBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExponentialBuckets = %v, want %v", got, want)
		}
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	h := r.Histogram("obs", []float64{1, 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 3))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`stop_total{reason="budget"}`).Add(3)
	r.Counter(`stop_total{reason="rse"}`).Add(1)
	r.Gauge("shots_per_sec").Set(1234.5)
	r.Histogram("k", []float64{1, 2}).Observe(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE stop_total counter",
		`stop_total{reason="budget"} 3`,
		`stop_total{reason="rse"} 1`,
		"# TYPE shots_per_sec gauge",
		"shots_per_sec 1234.5",
		"# TYPE k histogram",
		`k_bucket{le="1"} 1`,
		`k_bucket{le="+Inf"} 1`,
		"k_sum 1",
		"k_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	// The shared TYPE header for the labeled counter family must appear
	// exactly once.
	if strings.Count(text, "# TYPE stop_total counter") != 1 {
		t.Error("duplicate TYPE header for labeled family")
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	if formatFloat(math.Inf(1)) != "+Inf" || formatFloat(math.Inf(-1)) != "-Inf" || formatFloat(math.NaN()) != "NaN" {
		t.Error("special float rendering broken")
	}
}
