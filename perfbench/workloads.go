package main

// metricDef names one reported figure and its unit. The two lists below are
// the benchmark's stable vocabulary: BENCHMARK.json repeats them and a test
// holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the system sees, reported by every
// workload from the untraced run. Each workload gives throughput and
// operation latency its own meaning (workload.unit, workload.op).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// perLayer are the figures of the traced run. Times are busy times summed
// over the benchmark's spans around each layer call; a layer the workload
// does not reach reports 0.
var perLayer = []metricDef{
	{"synth.busy_s", "s"},
	{"synth.calls", "count"},
	{"experiment.busy_s", "s"},
	{"surgery.pack_s", "s"},
	{"surgery.experiment_s", "s"},
	{"distance.busy_s", "s"},
	{"verify.busy_s", "s"},
	{"verify.misdecoded", "count"},
	{"verify.single_faults", "count"},
	{"noise.busy_s", "s"},
	{"dem.busy_s", "s"},
	{"dem.builds", "count"},
	{"dem.mechanisms", "count"},
	{"decoder.build_s", "s"},
	{"decoder.first_chunk_us_per_shot", "us"},
	{"decoder.us_per_shot.d3", "us"},
	{"decoder.us_per_shot.d5", "us"},
	{"decoder.us_per_shot.d7", "us"},
	{"decoder.blossom_shots", "count"},
	{"decoder.fast_k1", "count"},
	{"decoder.fast_k2", "count"},
	{"decoder.uf_shots", "count"},
	{"decoder.uf_fallbacks", "count"},
	{"decoder.cache_hit_ratio", "ratio"},
	{"decoder.defects_per_shot", "count"},
	{"decoder.allocs_per_shot", "count"},
	{"frame.sample_s", "s"},
	{"frame.us_per_shot", "us"},
	{"mc.chunks", "count"},
	{"mc.worker_busy_ratio", "ratio"},
	{"threshold.point_p50_s", "s"},
	{"threshold.point_tail_s", "s"},
	{"threshold.crossing", "p"},
	{"threshold.logical_error_rate", "ratio"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_tail_ms", "ms"},
	{"server.run_p50_ms", "ms"},
	{"server.run_tail_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"trace.overhead_ratio", "ratio"},
	// The process's resident high-water mark is ungated: it moves with
	// garbage-collection timing by more than any bound could allow.
	{"process.peak_rss_mb", "MB"},
}

// workload is one input set of the benchmark, with the reason it was
// chosen and the layer → end-to-end predictions later changes are judged
// against.
type workload struct {
	name string
	why  string
	// unit is what throughput_per_s counts; op is what one op_*_ms sample
	// times.
	unit, op    string
	predictions []string
	newRunner   func(rc runConfig) runner
}

var workloads = []workload{
	{
		name: "threshold-hh",
		why: "The paper's Figure 9 headline: heavy-hexagon d=3 and d=5 curves over p=0.001-0.003 with the default blossom decoder. " +
			"Dense blossom on k>=3 syndromes dominates and DEM builds are a small share; it holds the only repeated syndromes " +
			"(d=3, low p), so it exercises blossom, the k<=2 closed forms and the syndrome cache, and bypasses union-find.",
		unit: "shots",
		op:   "one threshold estimate (d=3 and d=5 curves)",
		predictions: []string{
			"decoder.us_per_shot.d3/.d5, decoder.blossom_shots, decoder.fast_k1/.fast_k2 -> throughput_per_s (shots_per_s) here; a blossom change predicts no change on curve-uf-d7",
			"decoder.cache_hit_ratio, decoder.defects_per_shot, decoder.allocs_per_shot -> throughput_per_s (shots_per_s) here",
			"decoder.build_s, decoder.first_chunk_us_per_shot -> throughput_per_s (shots_per_s) here",
			"dem.busy_s, noise.busy_s -> throughput_per_s (shots_per_s) here, small share",
			"synth.busy_s, experiment.busy_s -> setup_s here",
			"mc.worker_busy_ratio, threshold.point_p50_s/tail -> throughput_per_s and op_p50_ms here",
		},
		newRunner: newThresholdHH,
	},
	{
		name: "curve-uf-d7",
		why: "Heavy-square d=7, 21 rounds, union-find at p=0.001/0.002/0.003: one DEM build per p is about half the CPU and " +
			"union-find decoding most of the rest, so it exercises union-find and per-p DEM reuse and bypasses blossom.",
		unit: "shots",
		op:   "one d=7 curve estimate (three points)",
		predictions: []string{
			"dem.busy_s, dem.builds, dem.mechanisms, noise.busy_s -> throughput_per_s (shots_per_s) here, large share",
			"decoder.uf_shots, decoder.uf_fallbacks, decoder.us_per_shot.d7 -> throughput_per_s (shots_per_s) here; a union-find change predicts no change on threshold-hh",
			"frame.sample_s, frame.us_per_shot -> throughput_per_s (shots_per_s) here, largest share at p=0.001",
			"mc.worker_busy_ratio -> throughput_per_s: three points on two workers leave one worker idle for the last point",
			"synth.busy_s, experiment.busy_s -> setup_s here",
		},
		newRunner: newCurveUFD7,
	},
	{
		name: "compile",
		why: "The paper's own product, compile time: synthesize, build and certify every tiling at d=3/5/7, verify every d=3 " +
			"tiling, pack 2-patch surgery layouts and degrade defected d=5 devices; it loads synth, experiment, surgery, distance " +
			"and verify and bypasses frame, mc and the Monte-Carlo decoder.",
		unit: "codes",
		op:   "one compile operation (one code, verification or layout)",
		predictions: []string{
			"synth.busy_s, synth.calls, experiment.busy_s -> throughput_per_s (codes_per_s) here",
			"surgery.pack_s, surgery.experiment_s -> throughput_per_s (codes_per_s) here and op_tail_ms (job_tail_ms) on serve",
			"distance.busy_s -> throughput_per_s (codes_per_s) here and op_p50_ms (job_p50_ms) on serve",
			"verify.busy_s -> throughput_per_s (codes_per_s) here; verify.misdecoded, verify.single_faults -> fail_ratio here",
		},
		newRunner: newCompile,
	},
	{
		name: "serve",
		why: "An in-process daemon on loopback under a closed loop of nproc clients drawing synthesize, estimate, curve and " +
			"surgery jobs with repeats, so the queue, the content-addressed cache, single-flight coalescing and the JSON wire " +
			"path run, with cache hits and cold jobs side by side.",
		unit: "jobs",
		op:   "one job, submit to terminal state",
		predictions: []string{
			"server.queue_wait_p50_ms/tail, server.run_p50_ms/tail -> op_tail_ms (job_tail_ms) and throughput_per_s (jobs_per_s) here",
			"server.cache_hit_ratio, server.coalesced, server.rejected -> throughput_per_s (jobs_per_s) and op_p50_ms (job_p50_ms) here",
			"distance.busy_s, surgery.pack_s on compile -> op_p50_ms and op_tail_ms here (synthesize and surgery jobs certify)",
		},
		newRunner: newServe,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
