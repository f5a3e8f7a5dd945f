package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"surfstitch"
	"surfstitch/internal/device"
)

func TestTailIsHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		n         int
		label     string
		tail, p50 time.Duration
	}{
		{0, "none", 0, 0},
		{1, "max", time.Millisecond, time.Millisecond},
		{10, "max", 10 * time.Millisecond, 5 * time.Millisecond},
		{20, "p50", 10 * time.Millisecond, 10 * time.Millisecond},
		{100, "p90", 90 * time.Millisecond, 50 * time.Millisecond},
		{1000, "p99", 990 * time.Millisecond, 500 * time.Millisecond},
		{10000, "p99.9", 9990 * time.Millisecond, 5000 * time.Millisecond},
	} {
		s := summarize(samples(tc.n))
		if s.tailLabel != tc.label || s.tail != tc.tail || s.p50 != tc.p50 || s.n != tc.n {
			t.Errorf("n=%d: got %s=%v p50=%v n=%d, want %s=%v p50=%v", tc.n, s.tailLabel, s.tail, s.p50, s.n, tc.label, tc.tail, tc.p50)
		}
		// The rule itself: at least ten samples strictly ranked beyond.
		if tc.n > 0 && s.tailLabel != "max" {
			beyond := 0
			for _, x := range samples(tc.n) {
				if x > s.tail {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond %s", tc.n, beyond, s.tailLabel)
			}
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildIntervals(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	span := func(id, parent int64, from, to int) spanRec {
		return spanRec{Name: "s", ID: id, Parent: parent, Start: at(from), DurationNS: int64(time.Duration(to-from) * time.Millisecond)}
	}
	spans := []spanRec{
		span(1, 0, 0, 100),
		span(2, 1, 10, 30),  // overlaps child 3: together they cover 10..50
		span(3, 1, 20, 50),  //
		span(4, 1, 90, 120), // runs past the parent: only 90..100 counts
		span(5, 2, 12, 28),  // grandchild: inside child 2, no effect on span 1
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 50 * time.Millisecond,
		2: 4 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 16 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	agg := aggregate(spans)["s"]
	if agg.count != 5 || agg.total != 196*time.Millisecond || agg.self != 130*time.Millisecond {
		t.Errorf("aggregate = count %d total %v self %v", agg.count, agg.total, agg.self)
	}
}

func TestFailureCounting(t *testing.T) {
	r := newResult()
	r.check(true, "fine")
	r.check(false, "wrong answer %d", 1)
	r.gate(true, "fine")
	r.gate(false, "quality gate %d", 2)
	if r.attempted != 4 || r.failed != 2 || r.wrong != 1 {
		t.Fatalf("attempted=%d failed=%d wrong=%d, want 4 2 1", r.attempted, r.failed, r.wrong)
	}
	if strings.Join(r.failures, "|") != "wrong answer 1|quality gate 2" {
		t.Errorf("failures = %q", r.failures)
	}
	for i := 0; i < 20; i++ {
		r.check(false, "more")
	}
	if r.failed != 22 || len(r.failures) != 12 {
		t.Errorf("failed=%d notes=%d: every failure counts, notes are capped", r.failed, len(r.failures))
	}
}

func TestInputsAreDeterministicInTheSeed(t *testing.T) {
	for i := 0; i < 50; i++ {
		if s := deriveSeed(7, 0, i); s <= 0 || s != deriveSeed(7, 0, i) {
			t.Fatalf("deriveSeed(7, 0, %d) = %d: want a repeatable positive seed", i, s)
		}
	}
	if deriveSeed(7, 0, 1) == deriveSeed(8, 0, 1) || deriveSeed(7, 0, 1) == deriveSeed(7, 1, 1) {
		t.Error("seeds of different workload seeds or streams collide")
	}

	a, b, c := newServeStream(3), newServeStream(3), newServeStream(4)
	differs := false
	for i := 60; i >= 0; i-- { // out of order: at(i) must not depend on call order
		if !bytes.Equal(a.at(i).body, b.at(i).body) {
			t.Fatalf("serve request %d differs between two streams of one seed", i)
		}
		differs = differs || !bytes.Equal(a.at(i).body, c.at(i).body)
	}
	if !differs {
		t.Error("serve streams of seeds 3 and 4 are identical")
	}
	kinds := map[string]int{}
	for i := 0; i < 6; i++ {
		kinds[a.at(i).kind]++
	}
	if len(kinds) != 4 {
		t.Errorf("first deck covers kinds %v, want all four", kinds)
	}

	r1, r2 := &compileRunner{rc: runConfig{seed: 3}}, &compileRunner{rc: runConfig{seed: 3}}
	if err := r1.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r2.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 2*len(r1.mix); i++ {
		op1, s1 := r1.opAt(i)
		op2, s2 := r2.opAt(i)
		if op1.String() != op2.String() || s1 != s2 {
			t.Fatalf("compile op %d differs: %v/%d vs %v/%d", i, op1, s1, op2, s2)
		}
		seen[op1.String()]++
	}
	if len(seen) != len(r1.mix) {
		t.Errorf("two passes cover %d distinct ops, want the %d-op mix", len(seen), len(r1.mix))
	}
	for op, n := range seen {
		if n != 2 {
			t.Errorf("%s ran %d times in two passes", op, n)
		}
	}
}

func TestLayerMetricsCoverEveryPerLayerName(t *testing.T) {
	v := layerMetrics(nil, newResult())
	if len(v) != len(perLayer) {
		t.Errorf("layerMetrics gives %d figures, perLayer names %d", len(v), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := v[d.name]; !ok {
			t.Errorf("no figure for %s", d.name)
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the names this program
// prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "compile", "--trace", "2"},
		{"--workload", "compile", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := realMain(args, &out); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// TestTracedDecodeMatchesUntraced runs one small operation through the
// untraced threshold path and the traced layer-by-layer replay.
func TestTracedDecodeMatchesUntraced(t *testing.T) {
	r := &decodeRunner{rc: runConfig{seed: 5, nproc: 2}, spec: decodeSpec{
		arch: surfstitch.HeavySquare, kind: device.KindHeavySquare,
		distances: []int{3}, ps: []float64{0.002, 0.004, 0.006}, shots: 1500,
	}}
	ctx := context.Background()
	if err := r.setup(ctx); err != nil {
		t.Fatal(err)
	}
	plain, err := r.run(ctx, time.Time{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracing()
	traced, err := r.run(tr.attach(ctx), time.Time{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.shots != 4500 || plain.shots != traced.shots || plain.errors != traced.errors || plain.errors == 0 {
		t.Fatalf("untraced %d shots / %d errors, traced %d / %d", plain.shots, plain.errors, traced.shots, traced.errors)
	}
	if plain.failed != 0 || traced.failed != 0 {
		t.Fatalf("failures: %v %v", plain.failures, traced.failures)
	}
	spans, err := parseSpans(tr.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	v := layerMetrics(spans, traced)
	// 1500 shots per point make two chunks (1024 + 476) at each of 3 points.
	if v["dem.builds"] != 3 || v["mc.chunks"] != 6 || v["decoder.us_per_shot.d3"] <= 0 || v["frame.us_per_shot"] <= 0 {
		t.Errorf("dem.builds=%v mc.chunks=%v us/shot=%v frame=%v", v["dem.builds"], v["mc.chunks"], v["decoder.us_per_shot.d3"], v["frame.us_per_shot"])
	}
}

// TestServeDeckSucceeds runs the first deck against a fresh daemon.
func TestServeDeckSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a daemon")
	}
	r := newServe(runConfig{seed: 5, nproc: 2})
	defer r.close()
	ctx := context.Background()
	if err := r.setup(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := r.run(ctx, time.Time{}, 4+poolPicks)
	if err != nil {
		t.Fatal(err)
	}
	if res.ops != 4+poolPicks || res.attempted != res.ops || res.failed != 0 {
		t.Fatalf("ops=%d attempted=%d failed=%d: %v", res.ops, res.attempted, res.failed, res.failures)
	}
}
