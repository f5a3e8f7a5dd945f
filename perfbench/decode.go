package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"surfstitch"
	"surfstitch/internal/decoder"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/frame"
	"surfstitch/internal/mc"
	"surfstitch/internal/noise"
	"surfstitch/internal/obs"
	"surfstitch/internal/threshold"
)

// decodeSpec fixes one decode workload: which codes, which sweep, how many
// fresh shots per point in each operation.
type decodeSpec struct {
	arch      surfstitch.Architecture
	kind      device.Kind
	distances []int
	ps        []float64
	shots     int
	unionFind bool
	// crossing checks that the first two curves, pooled over the run, cross
	// inside the sweep.
	crossing bool
}

func newThresholdHH(rc runConfig) runner {
	ps, err := threshold.Sweep(0.001, 0.003, 5)
	if err != nil {
		panic(err) // constant, valid range
	}
	return &decodeRunner{rc: rc, spec: decodeSpec{
		arch: surfstitch.HeavyHexagon, kind: device.KindHeavyHexagon,
		distances: []int{3, 5}, ps: ps, shots: 1024, crossing: true,
	}}
}

func newCurveUFD7(rc runConfig) runner {
	return &decodeRunner{rc: rc, spec: decodeSpec{
		arch: surfstitch.HeavySquare, kind: device.KindHeavySquare,
		distances: []int{7}, ps: []float64{0.001, 0.002, 0.003}, shots: 4096, unionFind: true,
	}}
}

// decodeCode is one synthesized memory experiment, built at set-up.
type decodeCode struct {
	d     int
	label string
	prov  threshold.CircuitProvider
	noise noise.Builder
}

type decodeRunner struct {
	rc    runConfig
	spec  decodeSpec
	codes []decodeCode
}

func (r *decodeRunner) setup(ctx context.Context) error {
	r.codes = r.codes[:0]
	for _, d := range r.spec.distances {
		w, h, ok := devicetest.Sizes(r.spec.kind, d)
		if !ok {
			return fmt.Errorf("no recorded %v tiling for d=%d", r.spec.kind, d)
		}
		dev, err := surfstitch.NewDevice(r.spec.arch, w, h)
		if err != nil {
			return err
		}
		_, span := obs.StartSpan(ctx, "synth")
		span.SetAttr("d", d)
		syn, err := surfstitch.Synthesize(context.Background(), dev, d, surfstitch.Options{})
		span.End()
		if err != nil {
			return err
		}
		_, span = obs.StartSpan(ctx, "experiment")
		span.SetAttr("d", d)
		mem, err := surfstitch.NewMemory(syn, 3*d, surfstitch.MemoryOptions{})
		span.End()
		if err != nil {
			return err
		}
		r.codes = append(r.codes, decodeCode{
			d:     d,
			label: fmt.Sprintf("%s-d%d", dev.Name(), d),
			prov:  threshold.Provider(mem.Circuit, syn.AllQubits()),
			noise: noise.BuilderFor(dev),
		})
	}
	return nil
}

func (r *decodeRunner) close() {}

// config is the threshold configuration of operation seed `seed`: decoder
// options at their defaults apart from the workload's union-find switch.
func (r *decodeRunner) config(c decodeCode, seed int64) threshold.Config {
	return threshold.Config{
		Shots:   r.spec.shots,
		Seed:    seed,
		Workers: r.rc.nproc,
		Noise:   c.noise,
		Decoder: decoder.Options{UnionFind: r.spec.unionFind},
	}
}

func (r *decodeRunner) run(ctx context.Context, deadline time.Time, ops int) (*runResult, error) {
	traced := obs.TracerFromContext(ctx) != nil
	res := newResult()
	acc := &decodeAcc{probes: map[int]probe{}}
	pooled := make([]threshold.Curve, len(r.codes))
	for ci, c := range r.codes {
		pooled[ci] = threshold.Curve{Label: c.label, Distance: c.d, Points: make([]threshold.Point, len(r.spec.ps))}
	}
	start, sampled := time.Now(), r.rc.probe.spentSampling()
	for i := 0; more(i, ops, deadline); i++ {
		var opTime time.Duration
		seed := deriveSeed(r.rc.seed, streamDecodeOp, i)
		for ci, c := range r.codes {
			r.rc.probe.every(probeEvery)
			cfg := r.config(c, seed)
			var curve threshold.Curve
			var err error
			curveStart := time.Now()
			if traced {
				curve, err = tracedCurve(ctx, c, r.spec.ps, cfg, acc)
			} else {
				curve, err = threshold.EstimateCurveContext(context.Background(), c.label, c.d, c.prov, r.spec.ps, cfg)
			}
			opTime += time.Since(curveStart)
			ok := err == nil && len(curve.Points) == len(r.spec.ps)
			for pi := range curve.Points {
				pt := curve.Points[pi]
				ok = ok && pt.Shots == r.spec.shots && pt.P == r.spec.ps[pi]
				pooled[ci].Points[pi].P = pt.P
				pooled[ci].Points[pi].Shots += pt.Shots
				pooled[ci].Points[pi].Errors += pt.Errors
				res.shots += int64(pt.Shots)
				res.errors += int64(pt.Errors)
			}
			res.check(ok, "op %d %s curve: err=%v points=%d", i, c.label, err, len(curve.Points))
		}
		res.latencies = append(res.latencies, opTime)
		res.ops++
	}
	res.wall = time.Since(start) - (r.rc.probe.spentSampling() - sampled)
	res.work = res.shots

	for ci := range pooled {
		for pi := range pooled[ci].Points {
			pt := &pooled[ci].Points[pi]
			pt.Logical = float64(pt.Errors) / float64(max(pt.Shots, 1))
		}
	}
	if r.spec.crossing && len(pooled) >= 2 {
		x, ok := threshold.Crossing(pooled[0], pooled[1])
		lo, hi := r.spec.ps[0], r.spec.ps[len(r.spec.ps)-1]
		res.check(ok && x >= lo && x <= hi, "d=%d and d=%d curves do not cross inside [%g, %g]",
			pooled[0].Distance, pooled[1].Distance, lo, hi)
		res.counts["threshold.crossing"] = x
	}
	res.notes = append(res.notes, fmt.Sprintf("%d ops x %d codes x %d points x %d fresh shots, Workers=%d, union_find=%v",
		res.ops, len(r.codes), len(r.spec.ps), r.spec.shots, r.rc.nproc, r.spec.unionFind))
	for _, c := range pooled {
		var parts []string
		for _, pt := range c.Points {
			parts = append(parts, fmt.Sprintf("p=%.4g:%d/%d", pt.P, pt.Errors, pt.Shots))
		}
		res.notes = append(res.notes, c.Label+" "+strings.Join(parts, " "))
	}
	if traced {
		acc.report(res, deriveSeed(r.rc.seed, streamAllocProbe, 0))
	}
	return res, nil
}

// decodeAcc gathers the decoder statistics of a traced run across its
// concurrently running points.
type decodeAcc struct {
	mu         sync.Mutex
	stats      decoder.Stats
	defects    int64
	mechanisms int64
	probes     map[int]probe
}

// probe keeps the last point's decoder and sampler of each distance for the
// allocation count after the run.
type probe struct {
	dec     *decoder.Decoder
	sampler *frame.ChunkedSampler
}

func (a *decodeAcc) add(st decoder.Stats, defects int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = a.stats.Merge(st)
	a.defects += defects
}

// report stores the decoder counts, then counts heap allocations per shot
// of one fresh chunk per distance on a warm decoder, single-threaded and
// outside every timed span.
func (a *decodeAcc) report(res *runResult, seed int64) {
	st := a.stats
	res.counts["dem.mechanisms"] = float64(a.mechanisms)
	res.counts["decoder.blossom_shots"] = float64(st.Blossom)
	res.counts["decoder.fast_k1"] = float64(st.FastK1)
	res.counts["decoder.fast_k2"] = float64(st.FastK2)
	res.counts["decoder.uf_shots"] = float64(st.UFShots)
	res.counts["decoder.uf_fallbacks"] = float64(st.UFFallbacks)
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		res.counts["decoder.cache_hit_ratio"] = float64(st.CacheHits) / float64(n)
	}
	if st.Shots > 0 {
		res.counts["decoder.defects_per_shot"] = float64(a.defects) / float64(st.Shots)
	}
	var mallocs, shots uint64
	for d, p := range a.probes {
		batch := p.sampler.SampleChunk(rand.New(rand.NewSource(seed+int64(d))), 1024)
		scratch := p.dec.NewScratch()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := p.dec.DecodeRangeScratch(batch, 0, batch.Shots, scratch)
		runtime.ReadMemStats(&after)
		res.check(err == nil, "allocation probe d=%d: %v", d, err)
		mallocs += after.Mallocs - before.Mallocs
		shots += uint64(batch.Shots)
	}
	if shots > 0 {
		res.counts["decoder.allocs_per_shot"] = float64(mallocs) / float64(shots)
	}
}

// tracedCurve is threshold.EstimateCurveContext driven through the layers'
// public functions with a span around each call: the same point
// concurrency, the same per-point worker split, the same seeds.
func tracedCurve(ctx context.Context, c decodeCode, ps []float64, cfg threshold.Config, acc *decodeAcc) (threshold.Curve, error) {
	ctx, span := obs.StartSpan(ctx, "threshold.curve")
	span.SetAttr("workers", cfg.Workers)
	defer span.End()
	pointConc := min(cfg.Workers, len(ps))
	perPoint := max(cfg.Workers/pointConc, 1)
	pts := make([]threshold.Point, len(ps))
	errs := make([]error, len(ps))
	sem := make(chan struct{}, pointConc)
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p float64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pts[i], errs[i] = tracedPoint(ctx, c, p, p == ps[len(ps)-1], cfg, perPoint, acc)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return threshold.Curve{}, err
		}
	}
	return threshold.Curve{Label: c.label, Distance: c.d, Points: pts}, nil
}

// tracedPoint mirrors threshold.EstimatePointContext: noise, DEM, decoder,
// sampler, then mc.Run with one sampled and decoded chunk per call.
func tracedPoint(ctx context.Context, c decodeCode, p float64, keep bool, cfg threshold.Config, workers int, acc *decodeAcc) (threshold.Point, error) {
	ctx, span := obs.StartSpan(ctx, "threshold.point")
	span.SetAttr("p", p)
	defer span.End()
	idle := noise.DefaultIdleError
	idleOnly := c.prov.IdleQubits()
	var applier noise.Applier = noise.Model{GateError: p, IdleError: idle, IdleOnly: idleOnly}
	if c.noise != nil {
		var err error
		if applier, err = c.noise(p, idle, idleOnly); err != nil {
			return threshold.Point{}, err
		}
	}

	_, s := obs.StartSpan(ctx, "noise")
	noisy, err := applier.Apply(c.prov.ExperimentCircuit())
	s.End()
	if err != nil {
		return threshold.Point{}, err
	}
	_, s = obs.StartSpan(ctx, "dem")
	s.SetAttr("d", c.d)
	dm, err := dem.FromCircuit(noisy)
	s.End()
	if err != nil {
		return threshold.Point{}, err
	}
	_, s = obs.StartSpan(ctx, "decoder.build")
	dec, err := decoder.NewWithOptions(dm, cfg.Decoder)
	s.End()
	if err != nil {
		return threshold.Point{}, err
	}
	_, s = obs.StartSpan(ctx, "frame.build")
	sampler, err := frame.NewChunkedSampler(noisy)
	s.End()
	if err != nil {
		return threshold.Point{}, err
	}
	acc.mu.Lock()
	acc.mechanisms += int64(len(dm.Mechanisms))
	if keep {
		acc.probes[c.d] = probe{dec: dec, sampler: sampler}
	}
	acc.mu.Unlock()

	mctx, mspan := obs.StartSpan(ctx, "mc.run")
	scratch := sync.Pool{New: func() any { return dec.NewScratch() }}
	res, err := mc.Run(context.Background(), mc.Config{
		Shots:      cfg.Shots,
		ChunkShots: cfg.ChunkShots,
		Workers:    workers,
		Seed:       mc.PointSeed(cfg.Seed, p),
	}, func(chunk int, rng *rand.Rand, shots int) (mc.Tally, error) {
		cctx, cs := obs.StartSpan(mctx, "mc.chunk")
		defer cs.End()
		_, ss := obs.StartSpan(cctx, "frame.sample")
		ss.SetAttr("d", c.d)
		ss.SetAttr("shots", shots)
		batch := sampler.SampleChunk(rng, shots)
		ss.End()
		_, ds := obs.StartSpan(cctx, "decoder.decode")
		ds.SetAttr("d", c.d)
		ds.SetAttr("shots", shots)
		ds.SetAttr("chunk", chunk)
		sc := scratch.Get().(*decoder.Scratch)
		st, err := dec.DecodeRangeScratch(batch, 0, shots, sc)
		scratch.Put(sc)
		ds.End()
		var defects int64
		for _, n := range frame.CountFlips(batch.DetFlips, shots) {
			defects += int64(n)
		}
		acc.add(st, defects)
		return mc.Tally{Shots: st.Shots, Errors: st.LogicalErrors}, err
	})
	mspan.End()
	if err != nil {
		return threshold.Point{}, err
	}
	return threshold.Point{P: p, Shots: res.Shots, Errors: res.Errors, Logical: res.Rate()}, nil
}
