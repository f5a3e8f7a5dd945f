package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"surfstitch"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/obs"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// tilings are the paper's five architecture families.
var tilings = []struct {
	arch surfstitch.Architecture
	kind device.Kind
	wire string // the daemon's arch name
}{
	{surfstitch.Square, device.KindSquare, "square"},
	{surfstitch.Hexagon, device.KindHexagon, "hexagon"},
	{surfstitch.Octagon, device.KindOctagon, "octagon"},
	{surfstitch.HeavySquare, device.KindHeavySquare, "heavy-square"},
	{surfstitch.HeavyHexagon, device.KindHeavyHexagon, "heavy-hexagon"},
}

// defectDensity is the random-defect fraction of the defected devices:
// enough to make the degradation ladder work, small enough that every
// recorded d=5 tiling still hosts a code.
const defectDensity = 0.02

type compileKind int

const (
	compileCode     compileKind = iota // Synthesize + NewMemory(3d) + CertifiedDistance
	compileDefected                    // the same on a seeded defected device, Degrade on
	compileVerify                      // Synthesize + Verify
	compileLayout                      // 2-patch surgery: Pack + NewExperiment
)

type compileOp struct {
	kind  compileKind
	tile  int // index into tilings
	d     int
	joint surgery.Joint
	dev   *surfstitch.Device // pristine device (layout device for compileLayout)
}

func (op compileOp) String() string {
	name := tilings[op.tile].wire
	switch op.kind {
	case compileDefected:
		return fmt.Sprintf("defected %s d=%d", name, op.d)
	case compileVerify:
		return fmt.Sprintf("verify %s d=%d", name, op.d)
	case compileLayout:
		return fmt.Sprintf("layout %s %v d=%d", name, op.joint, op.d)
	}
	return fmt.Sprintf("code %s d=%d", name, op.d)
}

// compileMix is the fixed compile mix, in declaration order.
func compileMix() ([]compileOp, error) {
	var mix []compileOp
	for ti := range tilings {
		for _, d := range []int{3, 5, 7} {
			mix = append(mix, compileOp{kind: compileCode, tile: ti, d: d})
		}
		mix = append(mix, compileOp{kind: compileVerify, tile: ti, d: 3})
		mix = append(mix, compileOp{kind: compileDefected, tile: ti, d: 5})
	}
	for ti, t := range tilings {
		if t.arch != surfstitch.HeavySquare && t.arch != surfstitch.Square {
			continue
		}
		for _, j := range []surgery.Joint{surgery.JointZZ, surgery.JointXX} {
			mix = append(mix, compileOp{kind: compileLayout, tile: ti, d: 3, joint: j})
		}
	}
	for i := range mix {
		op := &mix[i]
		t := tilings[op.tile]
		w, h, ok := devicetest.Sizes(t.kind, op.d)
		if op.kind == compileLayout {
			w, h, ok = layoutTiling(t.arch, op.d, op.joint)
		}
		if !ok {
			return nil, fmt.Errorf("no recorded tiling for %v", *op)
		}
		dev, err := surfstitch.NewDevice(t.arch, w, h)
		if err != nil {
			return nil, err
		}
		op.dev = dev
	}
	return mix, nil
}

// layoutTiling is the smallest recorded tiling hosting two d-patches merged
// by one joint measurement.
func layoutTiling(a surfstitch.Architecture, d int, j surgery.Joint) (w, h int, ok bool) {
	switch a {
	case surfstitch.HeavySquare:
		w, h = 2+d/2*2, 5+(d/2)*7
	case surfstitch.Square:
		w, h = 4*d, 5*d-1
	default:
		return 0, 0, false
	}
	if j == surgery.JointXX {
		w, h = h, w
	}
	return w, h, true
}

func twoPatchSpec(d int, j surgery.Joint) surgery.Spec {
	b := surgery.PatchSpec{Name: "b", Row: 1, Distance: d}
	if j == surgery.JointXX {
		b.Row, b.Col = 0, 1
	}
	return surgery.Spec{
		Patches: []surgery.PatchSpec{{Name: "a", Distance: d}, b},
		Ops:     []surgery.Op{{A: 0, B: 1, Joint: j}},
	}
}

type compileRunner struct {
	rc  runConfig
	mix []compileOp
}

func newCompile(rc runConfig) runner { return &compileRunner{rc: rc} }

func (r *compileRunner) setup(context.Context) error {
	mix, err := compileMix()
	r.mix = mix
	return err
}

func (r *compileRunner) close() {}

// opAt is operation i: pass i/len(mix) runs the whole mix in an order
// shuffled from the seed.
func (r *compileRunner) opAt(i int) (compileOp, int64) {
	pass, pos := i/len(r.mix), i%len(r.mix)
	perm := rand.New(rand.NewSource(deriveSeed(r.rc.seed, streamCompilePass, pass))).Perm(len(r.mix))
	return r.mix[perm[pos]], deriveSeed(r.rc.seed, streamDefects, i)
}

func (r *compileRunner) run(ctx context.Context, deadline time.Time, ops int) (*runResult, error) {
	res := newResult()
	start, sampled := time.Now(), r.rc.probe.spentSampling()
	// A timed run ends on a pass boundary, so every run times whole mixes.
	for i := 0; more(i, ops, deadline) || (ops == 0 && i%len(r.mix) != 0); i++ {
		r.rc.probe.every(probeEvery)
		op, seed := r.opAt(i)
		opStart := time.Now()
		r.do(ctx, op, seed, res)
		res.latencies = append(res.latencies, time.Since(opStart))
		res.ops++
	}
	res.wall = time.Since(start) - (r.rc.probe.spentSampling() - sampled)
	res.work = int64(res.ops)
	res.notes = append(res.notes, fmt.Sprintf("%d compile ops (%.2f passes of the %d-op mix), one at a time",
		res.ops, float64(res.ops)/float64(len(r.mix)), len(r.mix)))
	return res, nil
}

// span times one layer call.
func span(ctx context.Context, name string, d int, f func() error) error {
	_, s := obs.StartSpan(ctx, name)
	s.SetAttr("d", d)
	defer s.End()
	return f()
}

func (r *compileRunner) do(ctx context.Context, op compileOp, seed int64, res *runResult) {
	bg := context.Background()
	switch op.kind {
	case compileLayout:
		var p *surgery.Placement
		var e *surgery.Experiment
		err := span(ctx, "surgery.pack", op.d, func() (err error) {
			p, err = surgery.Pack(bg, op.dev, twoPatchSpec(op.d, op.joint), synth.Options{})
			return err
		})
		if err == nil {
			err = span(ctx, "surgery.experiment", op.d, func() (err error) {
				e, err = surgery.NewExperiment(p, surgery.Options{})
				return err
			})
		}
		res.check(err == nil && e.NumJointObs() == 1 && len(e.Circuit.Observables) == 3,
			"%v: err=%v", op, err)
		return
	case compileVerify:
		var syn *surfstitch.Synthesis
		err := span(ctx, "synth", op.d, func() (err error) {
			syn, err = surfstitch.Synthesize(bg, op.dev, op.d, surfstitch.Options{})
			return err
		})
		if err != nil {
			res.check(false, "%v: %v", op, err)
			return
		}
		var rep surfstitch.VerifyReport
		_ = span(ctx, "verify", op.d, func() error { rep = surfstitch.Verify(syn); return nil })
		res.counts["verify.misdecoded"] += float64(rep.SingleFaultMisdecoded)
		res.counts["verify.single_faults"] += float64(rep.SingleFaultTotal)
		res.gate(rep.Pass(), "%v: Verify fails, %d of %d single faults misdecoded",
			op, rep.SingleFaultMisdecoded, rep.SingleFaultTotal)
		return
	}

	dev, opts := op.dev, surfstitch.Options{}
	if op.kind == compileDefected {
		ds, err := surfstitch.GenerateDefects(dev, "random", defectDensity, seed)
		if err == nil {
			dev, err = dev.WithDefects(ds)
		}
		if err != nil {
			res.check(false, "%v seed %d: %v", op, seed, err)
			return
		}
		opts.Degrade = true
	}
	var syn *surfstitch.Synthesis
	var cert int
	err := span(ctx, "synth", op.d, func() (err error) {
		syn, err = surfstitch.Synthesize(bg, dev, op.d, opts)
		return err
	})
	if err == nil {
		err = span(ctx, "experiment", op.d, func() error {
			_, err := surfstitch.NewMemory(syn, 3*op.d, surfstitch.MemoryOptions{})
			return err
		})
	}
	if err == nil {
		err = span(ctx, "distance", op.d, func() (err error) {
			cert, err = surfstitch.CertifiedDistance(syn)
			return err
		})
	}
	if err != nil {
		res.check(false, "%v seed %d: %v", op, seed, err)
		return
	}
	want := op.d
	if syn.Degradation != nil {
		want = syn.Degradation.EffectiveDistance
	}
	res.check(cert == want, "%v seed %d: certified distance %d, want %d", op, seed, cert, want)
}
