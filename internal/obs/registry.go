// Package obs is the observability layer of the repository: a stdlib-only
// metrics registry with atomic hot-path instruments, lightweight trace spans
// with a JSONL exporter, and per-run manifests recording what a run was and
// what it measured.
//
// Every piece is nil-safe by design: a nil *Registry hands out nil
// instruments, and every instrument method on a nil receiver is a no-op.
// Instrumented code therefore never branches on "is observability on" — it
// just calls through, and the calls vanish when nothing is attached.
//
// The hot-path contract: Counter.Add and Gauge.Set are single atomic
// operations, Histogram.Observe is one atomic add after a small linear
// bucket scan, and none of them allocate. Code hotter than that (the decode
// loop) accumulates into plain per-worker structs and promotes the tallies
// into the registry once per chunk.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (which should be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as atomic float64 bits.
// The zero value is ready to use; a nil Gauge discards all updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta via a CAS loop. Intended for cold paths (per-chunk or
// per-stage accumulation), not per-shot work.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		val := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper-bound inclusive,
// Prometheus style, with an implicit +Inf overflow bucket). A nil Histogram
// discards all observations.
type Histogram struct {
	bounds []float64      // sorted upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    Gauge
	count  atomic.Int64
}

// Observe records one observation of v.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v in one shot — the bulk form used
// when per-worker tallies are promoted into the registry at chunk
// boundaries.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	h.sum.Add(v * float64(n))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// LinearBuckets returns count upper bounds start, start+width, ... — the
// convenience shape for small-integer histograms like syndrome weights.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count upper bounds start, start·factor,
// start·factor², ... — the shape for quantities spanning orders of
// magnitude, like syndrome weights from d=3 to d=7.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Registry is a named collection of instruments. Metric names follow the
// Prometheus data model and may carry a label suffix in the name itself,
// e.g. `mc_stop_total{reason="budget"}`; the exposition writer groups and
// types series by base name.
//
// Registration (Counter/Gauge/Histogram) takes a mutex and is meant for
// setup paths; the returned instruments are lock-free. Asking for an
// existing name returns the existing instrument. Asking for a name that
// exists under a different instrument kind is a programming error; the
// registry resolves it without panicking by returning a detached instrument
// whose updates are safe but unexported.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]any{}}
}

// Counter returns the counter registered under name, creating it if needed.
// A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if c, ok := m.(*Counter); ok {
			return c
		}
		return &Counter{} // kind conflict: detached instrument
	}
	c := &Counter{}
	r.metrics[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if g, ok := m.(*Gauge); ok {
			return g
		}
		return &Gauge{}
	}
	g := &Gauge{}
	r.metrics[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if needed. The bounds of an existing
// histogram win; they must be sorted ascending.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if h, ok := m.(*Histogram); ok {
			return h
		}
		return newHistogram(bounds)
	}
	h := newHistogram(bounds)
	r.metrics[name] = h
	return h
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Snapshot returns every series as a flat name→value map: counters and
// gauges directly, histograms expanded into _count, _sum and cumulative
// _bucket series. It is the "final stats" payload of a run manifest.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.metrics))
	for name, m := range r.metrics {
		switch v := m.(type) {
		case *Counter:
			out[name] = float64(v.Value())
		case *Gauge:
			out[name] = v.Value()
		case *Histogram:
			out[histName(name, "_count", "")] = float64(v.Count())
			out[histName(name, "_sum", "")] = v.Sum()
			cum := int64(0)
			for i := range v.counts {
				cum += v.counts[i].Load()
				out[histName(name, "_bucket", leLabel(v.bounds, i))] = float64(cum)
			}
		}
	}
	return out
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4), sorted by name for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	snapshot := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		snapshot[name] = m
	}
	r.mu.Unlock()
	sort.Strings(names)

	typed := map[string]bool{}
	for _, name := range names {
		base := baseName(name)
		switch v := snapshot[name].(type) {
		case *Counter:
			if err := writeType(w, typed, base, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, v.Value()); err != nil {
				return err
			}
		case *Gauge:
			if err := writeType(w, typed, base, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(v.Value())); err != nil {
				return err
			}
		case *Histogram:
			if err := writeType(w, typed, base, "histogram"); err != nil {
				return err
			}
			cum := int64(0)
			for i := range v.counts {
				cum += v.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s %d\n", histName(name, "_bucket", leLabel(v.bounds, i)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", histName(name, "_sum", ""), formatFloat(v.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", histName(name, "_count", ""), v.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeType(w io.Writer, typed map[string]bool, base, kind string) error {
	if typed[base] {
		return nil
	}
	typed[base] = true
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
	return err
}

// baseName strips the label suffix from a series name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// histName rewrites a (possibly labeled) histogram series name with the
// given suffix on its base name and an optional extra label merged into the
// label set: `h{a="b"}` + "_bucket" + `le="1"` → `h_bucket{a="b",le="1"}`.
func histName(name, suffix, extraLabel string) string {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base = name[:i]
		labels = strings.TrimSuffix(name[i+1:], "}")
	}
	switch {
	case labels == "" && extraLabel == "":
		return base + suffix
	case labels == "":
		return base + suffix + "{" + extraLabel + "}"
	case extraLabel == "":
		return base + suffix + "{" + labels + "}"
	default:
		return base + suffix + "{" + labels + "," + extraLabel + "}"
	}
}

// leLabel renders the `le` label for bucket i of the given bounds; the last
// bucket is +Inf.
func leLabel(bounds []float64, i int) string {
	if i >= len(bounds) {
		return `le="+Inf"`
	}
	return fmt.Sprintf("le=%q", formatFloat(bounds[i]))
}

// formatFloat renders floats the way Prometheus expects (shortest
// round-trip form, with special values spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}
