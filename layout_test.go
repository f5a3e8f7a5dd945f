package surfstitch

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/noise"
)

// layoutDevice sizes a device that hosts a merged 2-patch lattice of the
// given distance and seam orientation on each architecture family.
func layoutDevice(t *testing.T, a Architecture, d int, j Joint) *Device {
	t.Helper()
	var w, h int
	switch a {
	case HeavySquare:
		w, h = 2+d/2*2, 5+(d/2)*7
	case Square:
		w, h = 4*d, 5*d-1
	default:
		t.Fatalf("no 2-patch tiling recorded for %v", a)
	}
	if j == JointXX {
		w, h = h, w
	}
	return MustDevice(a, w, h)
}

// twoPatchLayout declares a 2-patch layout merged by one surgery op.
func twoPatchLayout(d int, j Joint) LayoutSpec {
	b := PatchSpec{Name: "b", Row: 1, Distance: d}
	if j == JointXX {
		b.Row, b.Col = 0, 1
	}
	return LayoutSpec{
		Patches: []PatchSpec{{Name: "a", Distance: d}, b},
		Ops:     []SurgeryOp{{A: 0, B: 1, Joint: j}},
	}
}

// TestSinglePatchLayoutDifferential pins the redesign's compatibility
// contract: a one-patch zero-op layout reproduces the legacy Synthesize +
// NewMemory pipeline bit for bit — same circuit, same detector error model —
// and addresses a distinct (surgery-namespaced) cache entry.
func TestSinglePatchLayoutDifferential(t *testing.T) {
	ctx := context.Background()
	dev := MustDevice(HeavySquare, 4, 3)
	ls, err := SynthesizeLayout(ctx, dev, LayoutSpec{Patches: []PatchSpec{{Distance: 3}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(ctx, dev, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemory(syn, ls.Spec().TotalRounds(), MemoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ls.Experiment.Circuit, mem.Circuit) {
		t.Error("one-patch layout circuit differs from legacy memory circuit")
	}
	model := noise.Model{GateError: 0.001, IdleError: DefaultIdleError}
	na, err := ls.Experiment.Noisy(model)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := mem.Noisy(model)
	if err != nil {
		t.Fatal(err)
	}
	da, err := dem.FromCircuit(na)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dem.FromCircuit(nb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(da, db) {
		t.Error("one-patch layout detector error model differs from legacy memory")
	}

	legacyHash, err := ConfigHash("estimate", dev, 3, Options{}, []float64{0.002}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	layoutHash, err := LayoutConfigHash("estimate", dev, ls.Spec(), Options{}, []float64{0.002}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if legacyHash == layoutHash {
		t.Error("surgery-namespaced hash collides with the legacy kind")
	}
}

// TestLayoutConfigHash pins the layout envelope semantics: stable across
// calls, insensitive to patch naming, sensitive to ops and to the decoder
// choice, and typed on malformed input.
func TestLayoutConfigHash(t *testing.T) {
	dev := MustDevice(Square, 4, 4)
	layout := twoPatchLayout(3, JointZZ)
	base, err := LayoutConfigHash("estimate", dev, layout, Options{}, []float64{0.002}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := LayoutConfigHash("estimate", dev, layout, Options{}, []float64{0.002}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Error("hash unstable across calls")
	}

	renamed := twoPatchLayout(3, JointZZ)
	renamed.Patches[0].Name, renamed.Patches[1].Name = "alice", "bob"
	got, err := LayoutConfigHash("estimate", dev, renamed, Options{}, []float64{0.002}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Error("patch names changed the hash; naming has no physics")
	}

	noOps := twoPatchLayout(3, JointZZ)
	noOps.Ops = nil
	got, err = LayoutConfigHash("estimate", dev, noOps, Options{}, []float64{0.002}, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got == base {
		t.Error("dropping the surgery op did not change the hash")
	}

	got, err = LayoutConfigHash("estimate", dev, layout, Options{}, []float64{0.002}, RunConfig{UnionFind: true})
	if err != nil {
		t.Fatal(err)
	}
	if got == base {
		t.Error("decoder choice did not change the hash")
	}

	if _, err := LayoutConfigHash("estimate", dev, LayoutSpec{}, Options{}, nil, RunConfig{}); !errors.Is(err, ErrBadLayout) {
		t.Errorf("empty layout: err = %v, want ErrBadLayout", err)
	}
	if _, err := LayoutConfigHash("", dev, layout, Options{}, nil, RunConfig{}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("empty kind: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := LayoutConfigHash("estimate", nil, layout, Options{}, nil, RunConfig{}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil device: err = %v, want ErrInvalidConfig", err)
	}
}

// TestLayoutRejectsMemoryRunFields: a layout's round counts come from its
// spec and each patch's basis from its ops, so RunConfig.Rounds and
// RunConfig.Basis are errors on the layout entry points, not silently
// ignored inputs that would also share a cache entry.
func TestLayoutRejectsMemoryRunFields(t *testing.T) {
	ctx := context.Background()
	dev := MustDevice(HeavySquare, 4, 3)
	layout := LayoutSpec{Patches: []PatchSpec{{Distance: 3}}}
	ls, err := SynthesizeLayout(ctx, dev, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]RunConfig{
		"rounds":  {Shots: 64, Rounds: 5},
		"basis X": {Shots: 64, Basis: BasisX},
	} {
		if _, err := EstimateLayoutErrorRate(ctx, ls, 0.002, cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("EstimateLayoutErrorRate with %s: err = %v, want ErrInvalidConfig", name, err)
		}
		if _, err := LayoutConfigHash("surgery", dev, layout, Options{}, []float64{0.002}, cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("LayoutConfigHash with %s: err = %v, want ErrInvalidConfig", name, err)
		}
	}
}

// TestLayoutAcceptanceMatrix is the acceptance bar of the surgery redesign:
// 2-patch XX and ZZ merges on two tilings at d=3 and d=5 synthesize with
// tableau-verified joint parity (SynthesizeLayout fails otherwise) and yield
// a finite seeded Monte-Carlo logical error rate under both the blossom and
// the union-find decoder.
func TestLayoutAcceptanceMatrix(t *testing.T) {
	ctx := context.Background()
	for _, a := range []Architecture{HeavySquare, Square} {
		for _, j := range []Joint{JointZZ, JointXX} {
			for _, d := range []int{3, 5} {
				if testing.Short() && d == 5 {
					continue
				}
				name := a.String() + "-" + j.String() + "-d" + string(rune('0'+d))
				t.Run(name, func(t *testing.T) {
					ls, err := SynthesizeLayout(ctx, layoutDevice(t, a, d, j), twoPatchLayout(d, j), Options{})
					if err != nil {
						t.Fatalf("SynthesizeLayout: %v", err)
					}
					if got := len(ls.Experiment.Circuit.Observables); got != 3 {
						t.Fatalf("observables = %d, want 1 joint + 2 memory", got)
					}
					for _, uf := range []bool{false, true} {
						res, err := EstimateLayoutErrorRate(ctx, ls, 0.005, RunConfig{
							Shots: 400, MaxErrors: 30, Seed: 7, UnionFind: uf,
						})
						if err != nil {
							t.Fatalf("estimate (union-find %v): %v", uf, err)
						}
						if res.Errors == 0 || res.LogicalErrorRate <= 0 || res.LogicalErrorRate >= 1 {
							t.Errorf("union-find %v: logical error rate %g (%d/%d) not finite",
								uf, res.LogicalErrorRate, res.Errors, res.Shots)
						}
					}
				})
			}
		}
	}
}

// TestVerifyLayoutFacade: the facade verification entry point reports
// per-patch placement results and passes on a known-good 2-patch merge; a
// nil layout fails without panicking.
func TestVerifyLayoutFacade(t *testing.T) {
	ls, err := SynthesizeLayout(context.Background(),
		layoutDevice(t, HeavySquare, 3, JointZZ), twoPatchLayout(3, JointZZ), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyLayout(ls)
	if len(rep.Patches) != 2 {
		t.Fatalf("patch reports = %d, want 2", len(rep.Patches))
	}
	if !rep.Pass() {
		t.Errorf("verification failed:\n%s", rep)
	}
	if VerifyLayout(nil).Pass() {
		t.Error("nil layout passed verification")
	}
}
