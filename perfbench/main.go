// Command perfbench is the repository benchmark: four workloads that time
// the surfstitch pipeline end to end (untraced) and layer by layer (traced).
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, scaled to the speed of a
// reference machine (speed.go) with the raw figures beside them; with
// --trace 1 it runs the same operations twice, untraced then traced, checks
// the two agree, and prints the per-layer metrics (raw), the stage table and
// the tracing overhead. The last line of standard output is always one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"surfstitch/internal/mc"
)

// Each run repeats its set-up at least minSetupReps times and until
// minSetupTime has passed (at most maxSetupReps times); setup_s is the
// median. The first second or so of a fresh process runs set-ups up to 1.6x
// slower (heap growth, page faults), so enough repetitions must follow for
// the median to land in the steady state.
const (
	minSetupReps = 15
	maxSetupReps = 101
	minSetupTime = 2 * time.Second
)

// probeEvery is the least time between two speed samples.
const probeEvery = 500 * time.Millisecond

// runConfig is what a workload's inputs are derived from, plus the speed
// probe the untraced run samples between operations (nil when traced).
type runConfig struct {
	seed  int64
	nproc int
	probe *speedProbe
}

// runner drives one workload. setup may run several times; each call
// replaces the previous state. run performs operations 0, 1, 2, ... until
// the deadline has passed (always at least one), or exactly ops operations
// when ops > 0; operation i depends only on the seed and i. A context
// carrying an obs tracer makes both record spans around their layer calls.
type runner interface {
	setup(ctx context.Context) error
	run(ctx context.Context, deadline time.Time, ops int) (*runResult, error)
	close()
}

// more reports whether operation i should run: exactly ops operations when
// ops > 0, otherwise until the deadline, and always at least one.
func more(i, ops int, deadline time.Time) bool {
	if ops > 0 {
		return i < ops
	}
	return i == 0 || time.Now().Before(deadline)
}

// runResult is what one run measured and checked.
type runResult struct {
	work      int64 // units of workload.unit completed
	wall      time.Duration
	latencies []time.Duration // one per operation
	ops       int

	// attempted counts operations and checks; failed counts those that
	// returned an error or whose output failed its check. wrong counts
	// the subset whose result was wrong, as opposed to a quality gate
	// (Verify.Pass) that the produced code did not meet.
	attempted, failed, wrong int
	failures                 []string

	// shots and errors pool every Monte-Carlo point of the run; the traced
	// replay must reproduce them exactly.
	shots, errors int64
	// counts are per-layer figures the workload measures itself (decoder
	// statistics, verify reports, job records).
	counts map[string]float64
	notes  []string
}

func newResult() *runResult { return &runResult{counts: map[string]float64{}} }

// check records one checked operation or assertion.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.wrong++
		r.note(format, args...)
	}
}

// gate records a quality gate: a failure counts toward fail_ratio but does
// not make the run's results wrong.
func (r *runResult) gate(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note(format, args...)
	}
}

func (r *runResult) note(format string, args ...any) {
	if len(r.failures) < 12 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// Input streams of deriveSeed: each kind of seeded input draws from its own.
const (
	streamDecodeOp = iota
	streamAllocProbe
	streamCompilePass
	streamDefects
	streamDeckShuffle
	streamFresh
	streamSynthTemplate
	streamEstimateTemplate
	streamCurveTemplate
	streamSurgeryTemplate
	streamPool
)

// deriveSeed gives operation i of input stream `stream` its own positive
// seed, mixed from the workload seed with the Monte-Carlo engine's
// splitmix64 derivation.
func deriveSeed(seed int64, stream, i int) int64 {
	s := mc.ChunkSeed(mc.ChunkSeed(seed, stream), i) & math.MaxInt32
	if s == 0 {
		s = 1
	}
	return s
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	root := fs.String("root", ".", "repository root (traces go under its .bench_build)")
	revision := fs.String("revision", "none", "git revision of the root, recorded with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	rc := runConfig{seed: *seed, nproc: runtime.NumCPU()}
	if *trace == 0 {
		rc.probe = newSpeedProbe(rc.nproc)
	}
	env := collectEnv(*root, *revision)
	fmt.Fprintf(stdout, "== perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "why: %s\n", w.why)
	fmt.Fprintf(stdout, "env: go=%s GOMAXPROCS=%d nproc=%d cpu=%q revision=%s source_sha256=%s\n",
		env.GoVersion, env.GOMAXPROCS, env.NProc, env.CPUModel, env.Revision, env.SourceSHA256)

	r := w.newRunner(rc)
	defer r.close()
	budget := time.Duration(*seconds) * time.Second
	var out output
	var err error
	if *trace == 0 {
		out, err = untracedRun(stdout, w, r, rc, budget)
	} else {
		tracePath := filepath.Join(*root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		out, err = tracedRun(stdout, w, r, budget, tracePath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return 0
}

// timedSetup repeats the set-up and returns the median wall time and the
// number of repetitions.
func timedSetup(ctx context.Context, r runner, rc runConfig) (float64, int, error) {
	var secs []float64
	begin := time.Now()
	for i := 0; i < maxSetupReps && (i < minSetupReps || time.Since(begin) < minSetupTime); i++ {
		rc.probe.every(probeEvery)
		start := time.Now()
		if err := r.setup(ctx); err != nil {
			return 0, 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), len(secs), nil
}

func untracedRun(stdout io.Writer, w workload, r runner, rc runConfig, budget time.Duration) (output, error) {
	ctx := context.Background()
	rc.probe.sample()
	setup, reps, err := timedSetup(ctx, r, rc)
	if err != nil {
		return output{}, err
	}
	res, err := r.run(ctx, time.Now().Add(budget), 0)
	if err != nil {
		return output{}, err
	}
	rc.probe.sample()
	f := rc.probe.factor()
	lat := summarize(res.latencies)
	throughput := float64(res.work) / res.wall.Seconds()
	m := map[string]metric{
		"setup_s":          {setup * f, "s"},
		"throughput_per_s": {throughput / f, "1/s"},
		"op_p50_ms":        {ms(lat.p50) * f, "ms"},
		"op_tail_ms":       {ms(lat.tail) * f, "ms"},
	}
	fmt.Fprintf(stdout, "load: %s\n", strings.Join(res.notes, "; "))
	fmt.Fprintf(stdout, "speed: reference kernel median %.3f ms over %d samples, factor %.4f (gated figures = raw x factor for times, raw / factor for rates)\n",
		ms(time.Duration(float64(refNominal)/f)), len(rc.probe.samples), f)
	fmt.Fprintln(stdout, "end-to-end (gated value at reference speed, then raw):")
	fmt.Fprintf(stdout, "  setup_s            %12.4f s    raw %.4f; median of %d set-ups\n", m["setup_s"].Value, setup, reps)
	fmt.Fprintf(stdout, "  throughput_per_s   %12.4f 1/s  raw %.4f = %s_per_s: %d %s in %.3f s\n",
		m["throughput_per_s"].Value, throughput, w.unit, res.work, w.unit, res.wall.Seconds())
	fmt.Fprintf(stdout, "  op_p50_ms          %12.4f ms   raw %.4f; op = %s; n=%d\n", m["op_p50_ms"].Value, ms(lat.p50), w.op, lat.n)
	fmt.Fprintf(stdout, "  op_tail_ms         %12.4f ms   raw %.4f; %s (highest percentile with >= %d samples beyond); n=%d\n",
		m["op_tail_ms"].Value, ms(lat.tail), lat.tailLabel, tailBeyond, lat.n)
	if w.unit == "jobs" {
		fmt.Fprintf(stdout, "  (job_p50_ms = op_p50_ms, job_tail_ms = op_tail_ms)\n")
	}
	if res.shots > 0 {
		fmt.Fprintf(stdout, "  logical_error_rate %12.6f      %d errors / %d shots pooled over every point\n",
			float64(res.errors)/float64(res.shots), res.errors, res.shots)
	}
	fmt.Fprintf(stdout, "  fail_ratio         %12.6f      %d failed / %d attempted\n",
		ratio(res.failed, res.attempted), res.failed, res.attempted)
	fmt.Fprintf(stdout, "  peak_rss_mb        %12.4f MB   informational (ungated; process.peak_rss_mb in the traced run)\n", peakRSSMB())
	printFailures(stdout, res)
	fmt.Fprintln(stdout, "predictions (layer metric -> end-to-end metric):")
	for _, p := range w.predictions {
		fmt.Fprintf(stdout, "  %s\n", p)
	}
	return output{Correct: res.wrong == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}, nil
}

func tracedRun(stdout io.Writer, w workload, r runner, budget time.Duration, tracePath string) (output, error) {
	ctx := context.Background()
	if err := r.setup(ctx); err != nil {
		return output{}, fmt.Errorf("setup: %w", err)
	}
	plain, err := r.run(ctx, time.Now().Add(budget/2), 0)
	if err != nil {
		return output{}, err
	}
	tr := newTracing()
	tctx := tr.attach(ctx)
	if err := r.setup(tctx); err != nil {
		return output{}, fmt.Errorf("traced setup: %w", err)
	}
	traced, err := r.run(tctx, time.Time{}, plain.ops)
	if err != nil {
		return output{}, err
	}
	spans, err := parseSpans(tr.buf.Bytes())
	if err != nil {
		return output{}, err
	}
	if err := tr.flush(tracePath); err != nil {
		return output{}, fmt.Errorf("flushing trace: %w", err)
	}
	overhead := traced.wall.Seconds()/plain.wall.Seconds() - 1

	combined := newResult()
	combined.attempted = plain.attempted + traced.attempted
	combined.failed = plain.failed + traced.failed
	combined.wrong = plain.wrong + traced.wrong
	combined.failures = append(plain.failures, traced.failures...)
	same := plain.shots == traced.shots && plain.errors == traced.errors
	if plain.shots > 0 {
		combined.check(same, "traced run pooled %d shots / %d errors, untraced %d / %d",
			traced.shots, traced.errors, plain.shots, plain.errors)
	}

	values := layerMetrics(spans, traced)
	values["trace.overhead_ratio"] = overhead
	values["process.peak_rss_mb"] = peakRSSMB()
	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.name] = metric{values[d.name], d.unit}
	}

	fmt.Fprintf(stdout, "load: %s\n", strings.Join(traced.notes, "; "))
	fmt.Fprintf(stdout, "replay: %d operations untraced in %.3f s, then traced in %.3f s; tracing overhead %+.2f%%\n",
		plain.ops, plain.wall.Seconds(), traced.wall.Seconds(), 100*overhead)
	if plain.shots > 0 {
		fmt.Fprintf(stdout, "same program: traced %d shots / %d logical errors, untraced %d / %d: %v\n",
			traced.shots, traced.errors, plain.shots, plain.errors, same)
	}
	fmt.Fprintf(stdout, "fail_ratio: %d failed / %d attempted\n", combined.failed, combined.attempted)
	printFailures(stdout, combined)
	fmt.Fprintln(stdout, "per-layer:")
	for _, d := range perLayer {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	printStageTable(stdout, spans, w)
	printSpanTable(stdout, spans)
	fmt.Fprintln(stdout, "predictions (layer metric -> end-to-end metric):")
	for _, p := range w.predictions {
		fmt.Fprintf(stdout, "  %s\n", p)
	}
	fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(spans), tracePath)
	return output{Correct: combined.wrong == 0, Attempted: combined.attempted, Failed: combined.failed, Metrics: m}, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printFailures(stdout io.Writer, res *runResult) {
	for _, f := range res.failures {
		fmt.Fprintf(stdout, "  FAILED: %s\n", f)
	}
}

// layerMetrics turns the span log and the workload's own counts into the
// per-layer figures; every name in perLayer is present, 0 when unreached.
func layerMetrics(spans []spanRec, res *runResult) map[string]float64 {
	agg := aggregate(spans)
	get := func(name string) *layerAgg {
		if a := agg[name]; a != nil {
			return a
		}
		return &layerAgg{}
	}
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	v["synth.busy_s"] = get("synth").total.Seconds()
	v["synth.calls"] = float64(get("synth").count)
	v["experiment.busy_s"] = get("experiment").total.Seconds()
	v["surgery.pack_s"] = get("surgery.pack").total.Seconds()
	v["surgery.experiment_s"] = get("surgery.experiment").total.Seconds()
	v["distance.busy_s"] = get("distance").total.Seconds()
	v["verify.busy_s"] = get("verify").total.Seconds()
	v["noise.busy_s"] = get("noise").total.Seconds()
	v["dem.busy_s"] = get("dem").total.Seconds()
	v["dem.builds"] = float64(get("dem").count)
	v["decoder.build_s"] = get("decoder.build").total.Seconds()
	v["frame.sample_s"] = get("frame.sample").total.Seconds()
	v["mc.chunks"] = float64(get("mc.chunk").count)

	var sampleShots, firstShots float64
	var firstDur time.Duration
	decDur := map[int64]time.Duration{}
	decShots := map[int64]float64{}
	for _, s := range spans {
		switch s.Name {
		case "frame.sample":
			sampleShots += s.attr("shots")
		case "decoder.decode":
			d := s.attrInt("d")
			decDur[d] += s.dur()
			decShots[d] += s.attr("shots")
			if s.attrInt("chunk") == 0 {
				firstDur += s.dur()
				firstShots += s.attr("shots")
			}
		}
	}
	perShotUS := func(d time.Duration, shots float64) float64 {
		if shots == 0 {
			return 0
		}
		return float64(d) / float64(time.Microsecond) / shots
	}
	v["frame.us_per_shot"] = perShotUS(get("frame.sample").total, sampleShots)
	v["decoder.first_chunk_us_per_shot"] = perShotUS(firstDur, firstShots)
	for _, d := range []int64{3, 5, 7} {
		v[fmt.Sprintf("decoder.us_per_shot.d%d", d)] = perShotUS(decDur[d], decShots[d])
	}

	// Busy ratio: chunk time over the worker-time the curves had.
	var capacity float64
	for _, s := range spans {
		if s.Name == "threshold.curve" {
			capacity += s.attr("workers") * s.dur().Seconds()
		}
	}
	if capacity > 0 {
		v["mc.worker_busy_ratio"] = get("mc.chunk").total.Seconds() / capacity
	}
	if pts := get("threshold.point"); pts.count > 0 {
		sum := summarize(pts.durs)
		v["threshold.point_p50_s"] = sum.p50.Seconds()
		v["threshold.point_tail_s"] = sum.tail.Seconds()
	}
	if res.shots > 0 {
		v["threshold.logical_error_rate"] = float64(res.errors) / float64(res.shots)
	}
	for k, x := range res.counts {
		v[k] = x
	}
	return v
}

// printStageTable lays out the traced stage costs like the ROADMAP baseline
// table: stage x distance.
func printStageTable(stdout io.Writer, spans []spanRec, w workload) {
	type cell struct {
		dur   time.Duration
		n     int
		shots float64
	}
	rows := []struct{ span, label string }{
		{"synth", "synthesize (ms/call)"},
		{"experiment", "memory circuit (ms/call)"},
		{"dem", "DEM extraction (ms/build)"},
		{"frame.sample", "sampling (us/shot)"},
		{"decoder.decode", "decode (us/shot)"},
	}
	cells := map[string]map[int64]*cell{}
	ds := map[int64]bool{}
	for _, s := range spans {
		d := s.attrInt("d")
		if d == 0 {
			continue
		}
		if cells[s.Name] == nil {
			cells[s.Name] = map[int64]*cell{}
		}
		c := cells[s.Name][d]
		if c == nil {
			c = &cell{}
			cells[s.Name][d] = c
		}
		c.dur += s.dur()
		c.n++
		c.shots += s.attr("shots")
		ds[d] = true
	}
	var cols []int64
	for d := range ds {
		cols = append(cols, d)
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
	if len(cols) == 0 {
		return
	}
	fmt.Fprintf(stdout, "stage table (%s, traced):\n", w.name)
	fmt.Fprint(stdout, "| stage |")
	for _, d := range cols {
		fmt.Fprintf(stdout, " d=%d |", d)
	}
	fmt.Fprint(stdout, "\n|---|")
	for range cols {
		fmt.Fprint(stdout, "---|")
	}
	fmt.Fprintln(stdout)
	for _, row := range rows {
		fmt.Fprintf(stdout, "| %s |", row.label)
		for _, d := range cols {
			c := cells[row.span][d]
			switch {
			case c == nil:
				fmt.Fprint(stdout, " - |")
			case c.shots > 0:
				fmt.Fprintf(stdout, " %.2f (%.0f shots) |", float64(c.dur)/float64(time.Microsecond)/c.shots, c.shots)
			default:
				fmt.Fprintf(stdout, " %.2f (n=%d) |", ms(c.dur)/float64(c.n), c.n)
			}
		}
		fmt.Fprintln(stdout)
	}
}

// printSpanTable lists every span name with its total and self time and
// its latency distribution.
func printSpanTable(stdout io.Writer, spans []spanRec) {
	agg := aggregate(spans)
	var names []string
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(stdout, "spans (name, count, total s, self s, p50 ms, tail ms):")
	for _, n := range names {
		a := agg[n]
		sum := summarize(a.durs)
		fmt.Fprintf(stdout, "  %-20s %7d %10.4f %10.4f %10.3f %10.3f (%s)\n",
			n, a.count, a.total.Seconds(), a.self.Seconds(), ms(sum.p50), ms(sum.tail), sum.tailLabel)
	}
}
