// Command threshold reproduces the error-threshold experiments of the
// paper's Figure 9: it sweeps the physical error rate for distance-3 and
// distance-5 codes, prints the logical error curves, and reports the
// crossing-point threshold.
//
// Usage:
//
//	threshold -fig 9a -shots 20000
//	threshold -fig 9b
//	threshold -arch square -mode four -shots 10000
//	threshold -fig 9a -workers 8 -progress     # parallel sampling, live progress
//	threshold -fig 9a -target-rse 0.1          # stop each point at ±10% (Wilson)
//	threshold -fig 9a -max-errors 100          # or after 100 logical errors
//
// Sampling runs on the internal/mc engine: the shot budget is sharded into
// chunks across -workers goroutines, and results are bit-identical for a
// fixed -seed at any worker count. -target-rse and -max-errors enable
// adaptive early stopping per sweep point; -shots remains the hard cap.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"surfstitch/internal/stats"

	"surfstitch/internal/decoder"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/mc"
	"surfstitch/internal/noise"
	"surfstitch/internal/obs"
	"surfstitch/internal/paper"
	"surfstitch/internal/synth"
	"surfstitch/internal/threshold"
)

// runSettings is the resolved flag set recorded in the run manifest, so an
// interrupted or archived run stays reproducible from its manifest alone.
type runSettings struct {
	Fig         string    `json:"fig,omitempty"`
	Arch        string    `json:"arch,omitempty"`
	Mode        string    `json:"mode"`
	Basis       string    `json:"basis"`
	Shots       int       `json:"shots"`
	Ps          []float64 `json:"ps"`
	Workers     int       `json:"workers"`
	TargetRSE   float64   `json:"target_rse,omitempty"`
	MaxErrors   int       `json:"max_errors,omitempty"`
	Calibration string    `json:"calibration,omitempty"`
	UnionFind   bool      `json:"union_find,omitempty"`
	StreamWin   int       `json:"stream_window,omitempty"`
	StreamCom   int       `json:"stream_commit,omitempty"`
}

// jsonReport is the versioned machine-readable output behind -json.
type jsonReport struct {
	SchemaVersion int               `json:"schema_version"`
	Title         string            `json:"title"`
	Interrupted   bool              `json:"interrupted,omitempty"`
	Pairs         []paper.CurvePair `json:"pairs"`
}

func main() {
	var (
		csvOut   = flag.String("csv", "", "also write the curves as CSV to this file")
		fig      = flag.String("fig", "", "paper figure to reproduce: 9a or 9b (overrides -arch)")
		arch     = flag.String("arch", "", "architecture to sweep: square, hexagon, octagon, heavy-square, heavy-hexagon")
		mode     = flag.String("mode", "default", "synthesis mode: default or four")
		shots    = flag.Int("shots", 5000, "Monte-Carlo shots per sweep point (paper: 100000)")
		seed     = flag.Int64("seed", 1, "sampling seed")
		ps       = flag.String("p", "0.0005,0.001,0.002,0.004", "comma-separated physical error rates")
		basis    = flag.String("basis", "Z", "memory basis for -arch sweeps: Z (X-error threshold, the paper's setting) or X")
		workers  = flag.Int("workers", 0, "Monte-Carlo worker pool size (0 = NumCPU)")
		targRSE  = flag.Float64("target-rse", 0, "stop a sweep point once the Wilson interval's relative half-width reaches this (0 = fixed budget)")
		maxErrs  = flag.Int("max-errors", 0, "stop a sweep point after this many logical errors (0 = fixed budget)")
		progress = flag.Bool("progress", false, "print live sampling progress to stderr")
		calArg   = flag.String("calibration", "", "sweep a calibrated chip (-arch only): a Calibration JSON file, or <snapshot>[:<seed>] with snapshot good, median or bad; synthesis and the noise model both follow the snapshot")
		ufFlag   = flag.Bool("uf", false, "decode k>=3 syndromes with the almost-linear union-find decoder (-arch only; bounded-accuracy ablation)")
		streamW  = flag.Int("stream-window", 0, "stream the decode with this sliding-window size in rounds (-arch only; implies -uf)")
		streamC  = flag.Int("stream-commit", 1, "rounds committed per window advance (with -stream-window)")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, /debug/pprof and /debug/vars on this address (e.g. 127.0.0.1:8080)")
		traceOut    = flag.String("trace-out", "", "write JSONL trace spans to this file")
		manifestOut = flag.String("manifest-out", "", "write the run manifest (seed, config, git revision, timings, final stats) to this file")
		jsonOut     = flag.String("json", "", "also write the curves as versioned JSON to this file")
	)
	flag.Parse()

	if err := validateFlags(*shots, *workers, *targRSE, *maxErrs, *fig, *arch, *mode, *basis, *calArg, *ufFlag, *streamW, *streamC); err != nil {
		fmt.Fprintln(os.Stderr, "threshold: invalid flags:", err)
		fmt.Fprintln(os.Stderr, "run with -h for usage")
		os.Exit(2)
	}

	sweep, err := parsePs(*ps)
	if err != nil {
		fatal(err)
	}
	// SIGINT/SIGTERM cancel the sweep between Monte-Carlo chunks; whatever
	// points finished are flushed below before exiting with code 130.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Observability: the registry always exists (it also feeds the manifest's
	// final stats snapshot); the HTTP endpoint and trace file are opt-in.
	reg := obs.NewRegistry()
	ctx = obs.ContextWithRegistry(ctx, reg)
	if *metricsAddr != "" {
		_, bound, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "threshold: serving metrics on http://%s/metrics\n", bound)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		ctx = obs.ContextWithTracer(ctx, obs.NewTracer(f))
	}
	settings := runSettings{
		Fig: *fig, Arch: *arch, Mode: *mode, Basis: *basis,
		Shots: *shots, Ps: sweep, Workers: *workers,
		TargetRSE: *targRSE, MaxErrors: *maxErrs, Calibration: *calArg,
		UnionFind: *ufFlag || *streamW > 0, StreamWin: *streamW, StreamCom: *streamC,
	}
	manifest := obs.NewManifest("threshold", *seed, settings)

	cfg := paper.Config{
		Ctx:   ctx,
		Shots: *shots, Seed: *seed, Ps: sweep,
		Workers: *workers, TargetRSE: *targRSE, MaxErrors: *maxErrs,
		Registry: reg,
	}
	if *progress {
		cfg.Progress = progressPrinter()
	}
	start := time.Now()

	var pairs []paper.CurvePair
	var title string
	switch {
	case *fig == "9a":
		pairs, err = paper.Figure9a(cfg)
		title = "Figure 9(a): heavy-hexagon architecture"
	case *fig == "9b":
		pairs, err = paper.Figure9b(cfg)
		title = "Figure 9(b): heavy-square architecture"
	case *arch != "":
		var kind device.Kind
		kind, err = parseArch(*arch)
		if err != nil {
			fatal(err)
		}
		m := synth.ModeDefault
		if *mode == "four" {
			m = synth.ModeFour
		}
		b := experiment.BasisZ
		if *basis == "X" {
			b = experiment.BasisX
		}
		var dcfg decoderSettings
		if *ufFlag || *streamW > 0 {
			// Streaming rides on the union-find decoder, so -stream-window
			// implies -uf even when the flag is not given explicitly.
			dcfg.opts = decoder.Options{UnionFind: true}
		}
		if *streamW > 0 {
			dcfg.stream = &decoder.StreamConfig{Window: *streamW, Commit: *streamC}
		}
		var pair paper.CurvePair
		pair, err = sweepArch(ctx, kind, m, b, cfg, *calArg, dcfg)
		pairs = []paper.CurvePair{pair}
		title = fmt.Sprintf("threshold sweep: %s (mode %v)", *arch, m)
		if *calArg != "" {
			title += fmt.Sprintf(", calibration %s", *calArg)
		}
	default:
		fatal(fmt.Errorf("specify -fig 9a|9b or -arch <name>"))
	}
	interrupted := err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, synth.ErrBudgetExceeded))
	if err != nil && !interrupted {
		fatal(err)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "threshold: interrupted — flushing partial results")
	}
	printPairs(title, pairs)
	if *csvOut != "" {
		if err := writeCSV(*csvOut, pairs); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvOut)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, title, interrupted, pairs); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	// The manifest is flushed on the interrupted path too: a partial curve
	// with no record of its seed and config cannot be resumed or trusted.
	if err := manifest.Seal(reg, *manifestOut, interrupted); err != nil {
		fatal(err)
	}
	if *manifestOut != "" {
		fmt.Printf("wrote %s\n", *manifestOut)
	}
	fmt.Printf("\nelapsed: %.1fs\n", time.Since(start).Seconds())
	if interrupted {
		os.Exit(130)
	}
}

// writeJSON dumps the sweep as versioned, machine-readable JSON.
func writeJSON(path, title string, interrupted bool, pairs []paper.CurvePair) error {
	return obs.WriteJSONFile(path, jsonReport{
		SchemaVersion: obs.SchemaVersion,
		Title:         title,
		Interrupted:   interrupted,
		Pairs:         pairs,
	})
}

// progressPrinter returns a rate-limited live progress hook: at most a few
// lines per second to stderr, regardless of how many points sample at once.
func progressPrinter() func(p float64, pr mc.Progress) {
	var mu sync.Mutex
	var last time.Time
	return func(p float64, pr mc.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(last) < 250*time.Millisecond && pr.Chunks != pr.TotalChunks {
			return
		}
		last = time.Now()
		fmt.Fprintf(os.Stderr, "  p=%-8.4g chunk %d/%d shots=%-8d errors=%-6d est=%.4g (%.0f shots/s)\n",
			p, pr.Chunks, pr.TotalChunks, pr.Shots, pr.Errors, pr.Estimate, pr.ShotsPerSec)
	}
}

// decoderSettings bundles the decoder ablation flags for sweepArch.
type decoderSettings struct {
	opts   decoder.Options
	stream *decoder.StreamConfig
}

func sweepArch(ctx context.Context, kind device.Kind, m synth.Mode, basis experiment.Basis, cfg paper.Config, calArg string, dcfg decoderSettings) (paper.CurvePair, error) {
	var pair paper.CurvePair
	pair.Name = kind.String()
	tc := threshold.Config{
		Shots: cfg.Shots, Seed: cfg.Seed, Workers: cfg.Workers,
		TargetRSE: cfg.TargetRSE, MaxErrors: cfg.MaxErrors, Progress: cfg.Progress,
		Registry: cfg.Registry, Decoder: dcfg.opts, Stream: dcfg.stream,
	}
	for _, d := range []int{3, 5} {
		fd, layout, err := synth.FitDevice(kind, d, m)
		if err != nil {
			return pair, err
		}
		var s *synth.Synthesis
		tcd := tc
		if calArg != "" {
			// A calibrated sweep re-synthesizes on the calibrated device (so
			// routing follows the snapshot) and samples its device-aware
			// noise instead of the uniform channel.
			cal, err := loadCalibration(fd, calArg)
			if err != nil {
				return pair, err
			}
			calDev, err := fd.WithCalibration(cal)
			if err != nil {
				return pair, err
			}
			s, err = synth.Synthesize(ctx, calDev, d, synth.Options{Mode: m})
			if err != nil {
				return pair, err
			}
			tcd.Noise = noise.BuilderFor(calDev)
		} else {
			s, err = synth.SynthesizeOnLayoutContext(ctx, layout, synth.Options{Mode: m})
			if err != nil {
				return pair, err
			}
		}
		mem, err := experiment.NewMemory(s, 3*d, experiment.Options{Basis: basis})
		if err != nil {
			return pair, err
		}
		// The memory is its own provider, detector->round map included, so
		// streaming decode can slice the syndrome into windows.
		curve, err := threshold.EstimateCurveContext(ctx, fmt.Sprintf("%v d=%d", kind, d), d,
			mem, cfg.Ps, tcd)
		// Keep whatever points finished: an interrupt mid-curve still
		// produces a printable partial sweep.
		if d == 3 {
			pair.D3 = curve
		} else {
			pair.D5 = curve
		}
		if err != nil {
			return pair, err
		}
	}
	if th, ok := threshold.Crossing(pair.D3, pair.D5); ok {
		pair.Threshold = th
	}
	return pair, nil
}

func printPairs(title string, pairs []paper.CurvePair) {
	fmt.Println(title)
	for _, pair := range pairs {
		fmt.Printf("\n%s\n", pair.Name)
		fmt.Printf("  %-10s %-20s %-20s %-8s\n", "p", "d=3 logical [95%CI]", "d=5 logical [95%CI]", "lambda")
		for i := range pair.D3.Points {
			p3 := pair.D3.Points[i]
			lo3, hi3 := stats.WilsonInterval(p3.Errors, p3.Shots, 1.96)
			// An interrupted sweep can leave the d=5 curve short; print the
			// d=3 rows that finished and dash out the missing cells.
			d5cell, lambda := "-", "-"
			if i < len(pair.D5.Points) {
				p5 := pair.D5.Points[i]
				lo5, hi5 := stats.WilsonInterval(p5.Errors, p5.Shots, 1.96)
				d5cell = fmt.Sprintf("%.4f[%.4f,%.4f]", p5.Logical, lo5, hi5)
				if l, err := stats.Lambda(p3.Logical, p5.Logical); err == nil {
					lambda = fmt.Sprintf("%.2f", l)
				}
			}
			fmt.Printf("  %-10.4g %.4f[%.4f,%.4f] %-20s %-8s\n",
				p3.P, p3.Logical, lo3, hi3, d5cell, lambda)
		}
		var xs3, ys3 []float64
		for _, pt := range pair.D3.Points {
			xs3 = append(xs3, pt.P)
			ys3 = append(ys3, pt.Logical)
		}
		if slope, err := stats.LogLogSlope(xs3, ys3); err == nil {
			fmt.Printf("  d=3 log-log slope: %.2f (fault-tolerance order ~(d+1)/2 = 2)\n", slope)
		}
		if pair.Threshold > 0 {
			fmt.Printf("  threshold (d3/d5 crossing): %.4f (%.2f%%)\n", pair.Threshold, 100*pair.Threshold)
		} else {
			fmt.Printf("  threshold: no crossing within the sweep range\n")
		}
	}
}

// writeCSV dumps every curve point as rows of code,distance,p,shots,errors.
func writeCSV(path string, pairs []paper.CurvePair) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"code", "distance", "p", "shots", "errors", "logical"}); err != nil {
		return err
	}
	for _, pair := range pairs {
		for _, curve := range []threshold.Curve{pair.D3, pair.D5} {
			for _, pt := range curve.Points {
				rec := []string{
					pair.Name,
					strconv.Itoa(curve.Distance),
					strconv.FormatFloat(pt.P, 'g', -1, 64),
					strconv.Itoa(pt.Shots),
					strconv.Itoa(pt.Errors),
					strconv.FormatFloat(pt.Logical, 'g', -1, 64),
				}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func parsePs(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad error rate %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// loadCalibration parses the -calibration argument: either a snapshot spec
// "<snapshot>[:<seed>]" (good, median, bad) drawn reproducibly for this
// device, or a path to a Calibration JSON file.
func loadCalibration(dev *device.Device, arg string) (*device.Calibration, error) {
	if name, seedStr, hasSeed := strings.Cut(arg, ":"); isSnapshot(name) {
		seed := int64(1)
		if hasSeed {
			var err error
			seed, err = strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad calibration seed %q: %v", seedStr, err)
			}
		}
		return device.GenerateCalibration(dev, name, seed)
	}
	blob, err := os.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	return device.ParseCalibration(blob)
}

func isSnapshot(name string) bool {
	for _, s := range device.CalibrationSnapshots() {
		if s == name {
			return true
		}
	}
	return false
}

func parseArch(s string) (device.Kind, error) {
	switch s {
	case "square":
		return device.KindSquare, nil
	case "hexagon":
		return device.KindHexagon, nil
	case "octagon":
		return device.KindOctagon, nil
	case "heavy-square":
		return device.KindHeavySquare, nil
	case "heavy-hexagon":
		return device.KindHeavyHexagon, nil
	default:
		return 0, fmt.Errorf("unknown architecture %q", s)
	}
}

// validateFlags rejects flag combinations that would otherwise run with
// silently substituted defaults: a sweep with zero shots, a negative
// worker pool, a disabled-by-typo stopping rule, or conflicting artifact
// selectors.
func validateFlags(shots, workers int, targRSE float64, maxErrs int, fig, arch, mode, basis, calibration string, uf bool, streamW, streamC int) error {
	switch {
	case calibration != "" && arch == "":
		return fmt.Errorf("-calibration requires -arch (the paper figures sweep uncalibrated chips)")
	case (uf || streamW > 0) && arch == "":
		return fmt.Errorf("-uf and -stream-window require -arch (the paper figures use the published decoding path)")
	case streamW < 0:
		return fmt.Errorf("-stream-window must be >= 1 to enable streaming (0 = whole-shot), got %d", streamW)
	case streamW > 0 && (streamC < 1 || streamC > streamW):
		return fmt.Errorf("-stream-commit must be in [1, -stream-window=%d], got %d", streamW, streamC)
	case shots <= 0:
		return fmt.Errorf("-shots must be positive, got %d", shots)
	case workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 = NumCPU), got %d", workers)
	case targRSE < 0 || targRSE != targRSE:
		return fmt.Errorf("-target-rse must be > 0 to enable adaptive stopping (0 = fixed budget), got %g", targRSE)
	case maxErrs < 0:
		return fmt.Errorf("-max-errors must be >= 0 (0 = fixed budget), got %d", maxErrs)
	case fig != "" && fig != "9a" && fig != "9b":
		return fmt.Errorf("-fig must be 9a or 9b, got %q", fig)
	case fig != "" && arch != "":
		return fmt.Errorf("-fig %s and -arch %s are mutually exclusive", fig, arch)
	case mode != "default" && mode != "four":
		return fmt.Errorf("-mode must be default or four, got %q", mode)
	case basis != "Z" && basis != "X":
		return fmt.Errorf("-basis must be Z or X, got %q", basis)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "threshold:", err)
	os.Exit(1)
}
