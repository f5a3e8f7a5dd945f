package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"surfstitch/internal/devicetest"
	"surfstitch/internal/obs"
	"surfstitch/internal/server"
	"surfstitch/internal/surgery"
)

// The serve request stream is drawn in decks: each deck holds one fresh
// request of every job kind (a configuration the run has not submitted
// before, so it runs cold) and poolPicks copies of one request from a fixed
// pool, shuffled. A pool request runs cold the first time it is drawn and
// its copy then coalesces onto it or hits the cache; later draws hit the
// cache.
// Decks keep the cold/hit mix the same at every point of a run, and the
// templates are dealt in rounds (cycle) so every run gets the same mix.
const poolPicks = 2

// serveProbeEvery spaces the speed samples of a serve run: each one drains
// the jobs in flight, so they come less often than between sequential ops.
const serveProbeEvery = 2500 * time.Millisecond

// jobTimeout bounds the wait for one job, far above any job of the mix, so a
// stuck daemon fails the run instead of hanging it.
const jobTimeout = time.Minute

// serveReq is one job submission.
type serveReq struct {
	kind string
	body []byte
	// shots is the Monte-Carlo budget per point the result must report;
	// distance is the code distance a synthesize result must certify
	// (before degradation).
	shots, distance int
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain wire structs are marshalled here
	}
	return b
}

func tilingDevice(ti, d int) server.DeviceSpec {
	w, h, _ := devicetest.Sizes(tilings[ti].kind, d)
	return server.DeviceSpec{Arch: tilings[ti].wire, Width: w, Height: h}
}

// Request builders. Every config is valid on its tiling; run seeds only
// select fresh Monte-Carlo streams.
func synthReq(ti, d int, defectSeed int64) serveReq {
	req := server.Request{Device: tilingDevice(ti, d), Distance: d}
	if defectSeed != 0 {
		req.Defects = &server.DefectSpec{Generator: "random", Density: defectDensity, Seed: defectSeed}
		req.Options.Degrade = true
	}
	return serveReq{kind: server.KindSynthesize, body: mustJSON(req), distance: d}
}

// estimateTemplates is the number of estimate shapes: one per tiling plus
// heavy-hexagon on a median calibration.
const estimateTemplates = 6

func estimateReq(t int, runSeed int64) serveReq {
	const shots = 2048
	req := server.Request{Distance: 3, P: 0.002, Run: server.RunSpec{Shots: shots, Seed: runSeed}}
	if t < len(tilings) {
		req.Device = tilingDevice(t, 3)
	} else {
		req.Device = tilingDevice(len(tilings)-1, 3)
		req.Calibration = &server.CalibrationSpec{Preset: "median", Seed: 7}
	}
	return serveReq{kind: server.KindEstimate, body: mustJSON(req), shots: shots}
}

func curveReq(ti int, runSeed int64) serveReq {
	const shots = 1024
	req := server.Request{Device: tilingDevice(ti, 3), Distance: 3, Ps: []float64{0.001, 0.002, 0.003},
		Run: server.RunSpec{Shots: shots, Seed: runSeed}}
	return serveReq{kind: server.KindCurve, body: mustJSON(req), shots: shots}
}

// layoutShapes are the 2-patch d=3 surgery layouts: heavy-square and square,
// ZZ and XX.
var layoutShapes = []struct {
	tile  int
	joint surgery.Joint
}{{3, surgery.JointZZ}, {3, surgery.JointXX}, {0, surgery.JointZZ}, {0, surgery.JointXX}}

func surgeryReq(shape int, runSeed int64) serveReq {
	const d, shots = 3, 1024
	ls := layoutShapes[shape]
	w, h, _ := layoutTiling(tilings[ls.tile].arch, d, ls.joint)
	spec := twoPatchSpec(d, ls.joint)
	wire := server.LayoutSpecWire{Ops: []server.SurgeryOpWire{{A: 0, B: 1, Joint: map[surgery.Joint]string{surgery.JointZZ: "zz", surgery.JointXX: "xx"}[ls.joint]}}}
	for _, p := range spec.Patches {
		wire.Patches = append(wire.Patches, server.PatchSpecWire{Name: p.Name, Row: p.Row, Col: p.Col, Distance: p.Distance})
	}
	req := server.Request{Device: server.DeviceSpec{Arch: tilings[ls.tile].wire, Width: w, Height: h}, Layout: &wire}
	sr := serveReq{kind: server.KindSurgery, distance: d}
	if runSeed != 0 {
		req.P = 0.002
		req.Run = server.RunSpec{Shots: shots, Seed: runSeed}
		sr.shots = shots
	}
	sr.body = mustJSON(req)
	return sr
}

// servePool is the fixed pool the repeats are drawn from: every pristine
// tiling at d=3/5, the four layouts, and one estimate and one curve per
// template, all at fixed seeds.
func servePool() []serveReq {
	var pool []serveReq
	for ti := range tilings {
		pool = append(pool, synthReq(ti, 3, 0), synthReq(ti, 5, 0), curveReq(ti, 1))
	}
	for t := 0; t < estimateTemplates; t++ {
		pool = append(pool, estimateReq(t, 1))
	}
	for s := range layoutShapes {
		pool = append(pool, surgeryReq(s, 0))
	}
	return pool
}

// serveStream is the seeded request sequence; at(i) is the same for a seed
// whatever the run length.
type serveStream struct {
	seed int64
	pool []serveReq
	mu   sync.Mutex
	reqs []serveReq
}

func newServeStream(seed int64) *serveStream {
	return &serveStream{seed: seed, pool: servePool()}
}

func (s *serveStream) at(i int) serveReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.reqs = append(s.reqs, s.deck(len(s.reqs)/(4+poolPicks))...)
	}
	return s.reqs[i]
}

func (s *serveStream) deck(k int) []serveReq {
	fresh := func(j int) int64 { return deriveSeed(s.seed, streamFresh, 4*k+j) }
	deck := []serveReq{
		synthReq(cycle(s.seed, streamSynthTemplate, len(tilings), k), 5, fresh(0)),
		estimateReq(cycle(s.seed, streamEstimateTemplate, estimateTemplates, k), fresh(1)),
		curveReq(cycle(s.seed, streamCurveTemplate, len(tilings), k), fresh(2)),
		surgeryReq(cycle(s.seed, streamSurgeryTemplate, len(layoutShapes), k), fresh(3)),
	}
	pick := s.pool[cycle(s.seed, streamPool, len(s.pool), k)]
	for j := 0; j < poolPicks; j++ {
		deck = append(deck, pick)
	}
	rng := rand.New(rand.NewSource(deriveSeed(s.seed, streamDeckShuffle, k)))
	rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
	return deck
}

// cycle is draw g of a seeded sequence over [0, n) that visits every value
// once per n draws, in an order shuffled afresh for each round of n: every
// run sees the same template mix, only the order depends on the seed.
func cycle(seed int64, stream, n, g int) int {
	perm := rand.New(rand.NewSource(deriveSeed(seed, stream, g/n))).Perm(n)
	return perm[g%n]
}

// jobRecord is the part of the daemon's job record the benchmark reads.
type jobRecord struct {
	ID       string          `json:"id"`
	State    server.State    `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	// Coalesced and JobID come from the submit response.
	Coalesced bool   `json:"coalesced"`
	JobID     string `json:"job_id"`
}

type serveRunner struct {
	rc     runConfig
	stream *serveStream

	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	client *server.Client
}

func newServe(rc runConfig) runner {
	return &serveRunner{rc: rc, stream: newServeStream(rc.seed)}
}

// setup boots a fresh daemon (empty cache) on a loopback port: Workers =
// nproc jobs at a time, each with a one-worker Monte-Carlo pool, so the
// daemon never asks for more than nproc CPUs.
func (r *serveRunner) setup(ctx context.Context) error {
	r.close()
	srv, err := server.New(server.Config{Workers: r.rc.nproc, MCWorkers: 1, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return err
	}
	r.srv = srv
	r.hs = &http.Server{Handler: srv.Handler()}
	r.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close()
	}(r.hs, r.served)
	r.client = &server.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * r.rc.nproc}},
	}
	status, _, err := r.client.Get(ctx, "/readyz")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("daemon not ready: status %d: %v", status, err)
	}
	return nil
}

func (r *serveRunner) close() {
	if r.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Shutdown errors only report the 30 s drain deadline passing; the
	// listener and the workers are gone either way.
	_ = r.hs.Shutdown(ctx)
	<-r.served
	_ = r.srv.Shutdown(ctx)
	r.client.HTTPClient.CloseIdleConnections()
	r.srv = nil
}

// serveTally is shared by the client goroutines of one run.
type serveTally struct {
	mu        sync.Mutex
	res       *runResult
	first     map[string][]byte // request body -> first result bytes
	seen      map[string]bool   // job IDs whose record was counted
	queueWait []time.Duration
	runTime   []time.Duration
	hits      int
	coalesced int
	kinds     map[string]int
}

func (r *serveRunner) run(ctx context.Context, deadline time.Time, ops int) (*runResult, error) {
	t := &serveTally{res: newResult(), first: map[string][]byte{}, seen: map[string]bool{}, kinds: map[string]int{}}
	var next atomic.Int64
	var wg sync.WaitGroup
	// Speed samples need the machine idle: the sampler takes the gate,
	// which waits for the jobs in flight and holds back new submissions.
	var gate sync.RWMutex
	stop, sampled := make(chan struct{}), make(chan struct{})
	start, spent := time.Now(), r.rc.probe.spentSampling()
	go func() {
		defer close(sampled)
		if r.rc.probe == nil {
			return
		}
		tick := time.NewTicker(serveProbeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				gate.Lock()
				r.rc.probe.sample()
				gate.Unlock()
			}
		}
	}()
	for c := 0; c < r.rc.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (ops > 0 && i >= ops) || (ops == 0 && i > 0 && !time.Now().Before(deadline)) {
					return
				}
				gate.RLock()
				r.job(ctx, i, t)
				gate.RUnlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	res := t.res
	res.wall = time.Since(start) - (r.rc.probe.spentSampling() - spent)
	res.work = int64(res.ops)
	qw, rt := summarize(t.queueWait), summarize(t.runTime)
	res.counts["server.queue_wait_p50_ms"] = ms(qw.p50)
	res.counts["server.queue_wait_tail_ms"] = ms(qw.tail)
	res.counts["server.run_p50_ms"] = ms(rt.p50)
	res.counts["server.run_tail_ms"] = ms(rt.tail)
	res.counts["server.cache_hit_ratio"] = ratio(t.hits, res.ops)
	res.counts["server.coalesced"] = float64(t.coalesced)
	res.counts["server.rejected"] = float64(r.srv.Registry().Counter("server_backpressure_total").Value())
	res.notes = append(res.notes, fmt.Sprintf(
		"%d jobs from %d closed-loop clients (synthesize %d, estimate %d, curve %d, surgery %d); %d cache hits, %d coalesced, %d ran (queue wait %s over %d, run %s over %d); daemon Workers=%d MCWorkers=1",
		res.ops, r.rc.nproc, t.kinds[server.KindSynthesize], t.kinds[server.KindEstimate], t.kinds[server.KindCurve],
		t.kinds[server.KindSurgery], t.hits, t.coalesced, len(t.runTime), qw.tailLabel, qw.n, rt.tailLabel, rt.n, r.rc.nproc))
	return res, nil
}

// job submits request i, polls it to a terminal state and checks it.
func (r *serveRunner) job(ctx context.Context, i int, t *serveTally) {
	req := r.stream.at(i)
	sctx, span := obs.StartSpan(ctx, "server.job")
	span.SetAttr("kind", req.kind)
	start := time.Now()
	rec, err := r.submitAndWait(sctx, req)
	lat := time.Since(start)
	span.End()

	t.mu.Lock()
	defer t.mu.Unlock()
	res := t.res
	res.ops++
	res.latencies = append(res.latencies, lat)
	t.kinds[req.kind]++
	if err != nil {
		res.check(false, "job %d (%s): %v", i, req.kind, err)
		return
	}
	if rec.CacheHit {
		t.hits++
	}
	if rec.Coalesced {
		t.coalesced++
	}
	if !rec.Started.IsZero() && !t.seen[rec.ID] {
		t.seen[rec.ID] = true
		t.queueWait = append(t.queueWait, rec.Started.Sub(rec.Created))
		t.runTime = append(t.runTime, rec.Finished.Sub(rec.Started))
	}
	var problem error
	key := string(req.body)
	first, repeat := t.first[key]
	switch {
	case rec.State != server.StateDone:
		problem = fmt.Errorf("ended %s: %s", rec.State, rec.Error)
	case repeat && !bytes.Equal(first, rec.Result):
		problem = errors.New("result differs from the first result of the same request")
	default:
		if !repeat {
			t.first[key] = append([]byte(nil), rec.Result...)
		}
		problem = checkResult(req, rec.Result)
	}
	res.check(problem == nil, "job %d (%s): %v", i, req.kind, problem)
}

// submitAndWait posts the request and polls its job until it is terminal.
// A cache hit answers in the submit response itself.
func (r *serveRunner) submitAndWait(ctx context.Context, req serveReq) (jobRecord, error) {
	_, s := obs.StartSpan(ctx, "server.submit")
	status, body, err := r.client.Post(context.Background(), "/v1/"+req.kind, req.body)
	s.End()
	if err != nil {
		return jobRecord{}, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return jobRecord{}, fmt.Errorf("submit answered %d: %s", status, body)
	}
	var sub jobRecord
	if err := json.Unmarshal(body, &sub); err != nil {
		return jobRecord{}, fmt.Errorf("submit response: %w", err)
	}
	if sub.CacheHit && sub.State == server.StateDone {
		return sub, nil
	}
	_, s = obs.StartSpan(ctx, "server.poll")
	defer s.End()
	delay := time.Millisecond
	giveUp := time.Now().Add(jobTimeout)
	for {
		if time.Now().After(giveUp) {
			return jobRecord{}, fmt.Errorf("job %s not finished after %v", sub.JobID, jobTimeout)
		}
		status, body, err := r.client.Get(context.Background(), "/v1/jobs/"+sub.JobID)
		if err != nil {
			return jobRecord{}, err
		}
		if status != http.StatusOK {
			return jobRecord{}, fmt.Errorf("poll answered %d: %s", status, body)
		}
		var rec jobRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return jobRecord{}, fmt.Errorf("job record: %w", err)
		}
		switch rec.State {
		case server.StateDone, server.StateFailed, server.StateCancelled:
			rec.Coalesced = sub.Coalesced
			return rec, nil
		}
		time.Sleep(delay)
		delay = min(delay*3/2, 16*time.Millisecond)
	}
}

// checkResult checks what a finished job returned: a synthesize job must
// certify its distance (or its degraded effective distance), and every
// Monte-Carlo point must carry the requested shots.
func checkResult(req serveReq, blob json.RawMessage) error {
	switch req.kind {
	case server.KindSynthesize:
		var out struct {
			Certified   int `json:"certified_distance"`
			Degradation *struct {
				Effective int `json:"effectiveDistance"`
			} `json:"degradation"`
		}
		if err := json.Unmarshal(blob, &out); err != nil {
			return err
		}
		want := req.distance
		if out.Degradation != nil {
			want = out.Degradation.Effective
		}
		if out.Certified != want {
			return fmt.Errorf("certified distance %d, want %d", out.Certified, want)
		}
	case server.KindEstimate:
		var pt server.CurvePoint
		if err := json.Unmarshal(blob, &pt); err != nil {
			return err
		}
		if pt.Shots != req.shots {
			return fmt.Errorf("estimate ran %d shots, want %d", pt.Shots, req.shots)
		}
	case server.KindCurve:
		var c server.CurveResult
		if err := json.Unmarshal(blob, &c); err != nil {
			return err
		}
		if len(c.Points) != 3 {
			return fmt.Errorf("curve has %d points, want 3", len(c.Points))
		}
		for _, pt := range c.Points {
			if pt.Shots != req.shots {
				return fmt.Errorf("curve point p=%g ran %d shots, want %d", pt.P, pt.Shots, req.shots)
			}
		}
	case server.KindSurgery:
		var s server.SurgeryResult
		if err := json.Unmarshal(blob, &s); err != nil {
			return err
		}
		if len(s.Patches) != 2 {
			return fmt.Errorf("surgery placed %d patches, want 2", len(s.Patches))
		}
		for _, p := range s.Patches {
			if p.CertifiedDistance != req.distance {
				return fmt.Errorf("patch %s certified %d, want %d", p.Name, p.CertifiedDistance, req.distance)
			}
		}
		if req.shots > 0 && (s.Point == nil || s.Point.Shots != req.shots) {
			return errors.New("surgery point missing or short of shots")
		}
	}
	return nil
}
