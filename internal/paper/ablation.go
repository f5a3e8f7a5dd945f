package paper

import (
	"context"
	"fmt"
	"math/rand"

	"surfstitch/internal/decoder"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/experiment"
	"surfstitch/internal/frame"
	"surfstitch/internal/noise"
	"surfstitch/internal/stats"
	"surfstitch/internal/synth"
)

// AblationResult compares a design choice against its ablated variant.
type AblationResult struct {
	Name     string
	Baseline float64 // with the design choice (the shipped configuration)
	Ablated  float64 // without it
	Unit     string
}

func (r AblationResult) String() string {
	return fmt.Sprintf("%-28s baseline %.5g vs ablated %.5g (%s)", r.Name, r.Baseline, r.Ablated, r.Unit)
}

// AblationTreeMethod measures the benefit of the branching-tree heuristic
// (Algorithm 2's path merging, motivated by the paper's Figure 6): total
// bridge-tree CNOTs per error-detection cycle with and without it, on the
// heavy-hexagon architecture where data qubits sit far apart.
func AblationTreeMethod() (AblationResult, error) {
	res := AblationResult{Name: "branching-tree heuristic", Unit: "CNOTs/cycle"}
	_, layout, err := synth.FitDevice(device.KindHeavyHexagon, 3, synth.ModeDefault)
	if err != nil {
		return res, err
	}
	both, err := synth.SynthesizeOnLayout(layout, synth.Options{})
	if err != nil {
		return res, err
	}
	starOnly, err := synth.SynthesizeOnLayout(layout, synth.Options{StarOnlyTrees: true})
	if err != nil {
		return res, err
	}
	sum := func(s *synth.Synthesis) (n int) {
		for _, p := range s.Plans {
			n += p.NumCNOTs()
		}
		return
	}
	res.Baseline = float64(sum(both))
	res.Ablated = float64(sum(starOnly))
	return res, nil
}

// AblationHookOrientation measures the hook-orientation rule discovered
// during this reproduction: the distance-5 heavy-square code on a 5x4
// tiling (benign horizontal X hooks) versus the transposed 4x5 tiling
// (vertical hooks aligned with the logical X operator), as logical error
// rates at a fixed physical rate.
func AblationHookOrientation(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	res := AblationResult{Name: "hook orientation", Unit: "logical error rate @ p=0.002"}
	rate := func(dev *device.Device) (float64, error) {
		layout, err := synth.Allocate(context.Background(), dev, 5, synth.ModeDefault)
		if err != nil {
			return 0, err
		}
		s, err := synth.SynthesizeOnLayout(layout, synth.Options{})
		if err != nil {
			return 0, err
		}
		return logicalRateOf(s, 0.002, cfg)
	}
	good, err := rate(device.HeavySquare(5, 4))
	if err != nil {
		return res, err
	}
	bad, err := rate(device.HeavySquare(4, 5))
	if err != nil {
		return res, err
	}
	res.Baseline, res.Ablated = good, bad
	return res, nil
}

// AblationDecoderPeeling measures the elementary-edge peeling of the
// decoder's hyperedge decomposition against the naive consecutive-pair
// chaining, as distance-5 heavy-square logical error rates.
func AblationDecoderPeeling(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	res := AblationResult{Name: "decoder hyperedge peeling", Unit: "logical error rate @ p=0.002"}
	_, layout, err := synth.FitDevice(device.KindHeavySquare, 5, synth.ModeDefault)
	if err != nil {
		return res, err
	}
	s, err := synth.SynthesizeOnLayout(layout, synth.Options{})
	if err != nil {
		return res, err
	}
	m, err := experiment.NewMemory(s, 15, experiment.Options{})
	if err != nil {
		return res, err
	}
	noisy, err := m.Noisy(noise.Model{GateError: 0.002, IdleError: noise.DefaultIdleError})
	if err != nil {
		return res, err
	}
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		return res, err
	}
	for i, naive := range []bool{false, true} {
		dec, err := decoder.NewWithOptions(model, decoder.Options{NaiveDecomposition: naive})
		if err != nil {
			return res, err
		}
		sampler, err := frame.NewSampler(noisy, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return res, err
		}
		stats, err := dec.DecodeBatch(sampler.Sample(cfg.Shots))
		if err != nil {
			return res, err
		}
		if i == 0 {
			res.Baseline = stats.LogicalErrorRate()
		} else {
			res.Ablated = stats.LogicalErrorRate()
		}
	}
	return res, nil
}

// AblationDecoderUnionFind measures the almost-linear union-find decoder
// against the exact blossom on the k>=3 tail: distance-5 heavy-square
// logical error rates at p=0.002. This is a bounded-accuracy check, not an
// equality: union-find corrections are valid but may exceed the minimum
// weight, so the two rates must agree within their z=3 Wilson intervals
// rather than bit-for-bit.
func AblationDecoderUnionFind(cfg Config) (AblationResult, error) {
	cfg = cfg.withDefaults()
	res := AblationResult{Name: "decoder union-find (k>=3)", Unit: "logical error rate @ p=0.002 (Wilson z=3)"}
	_, layout, err := synth.FitDevice(device.KindHeavySquare, 5, synth.ModeDefault)
	if err != nil {
		return res, err
	}
	s, err := synth.SynthesizeOnLayout(layout, synth.Options{})
	if err != nil {
		return res, err
	}
	m, err := experiment.NewMemory(s, 15, experiment.Options{})
	if err != nil {
		return res, err
	}
	noisy, err := m.Noisy(noise.Model{GateError: 0.002, IdleError: noise.DefaultIdleError})
	if err != nil {
		return res, err
	}
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		return res, err
	}
	var errCounts [2]int
	var shots [2]int
	for i, ufOn := range []bool{false, true} {
		dec, err := decoder.NewWithOptions(model, decoder.Options{UnionFind: ufOn})
		if err != nil {
			return res, err
		}
		sampler, err := frame.NewSampler(noisy, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return res, err
		}
		st, err := dec.DecodeBatch(sampler.Sample(cfg.Shots))
		if err != nil {
			return res, err
		}
		errCounts[i], shots[i] = st.LogicalErrors, st.Shots
		if i == 0 {
			res.Baseline = st.LogicalErrorRate()
		} else {
			res.Ablated = st.LogicalErrorRate()
			if st.UFShots == 0 {
				return res, fmt.Errorf("paper: union-find ablation never engaged the union-find path (no k>=3 shots at %d shots)", st.Shots)
			}
		}
	}
	bLo, bHi := stats.WilsonInterval(errCounts[0], shots[0], 3)
	uLo, uHi := stats.WilsonInterval(errCounts[1], shots[1], 3)
	if bLo > uHi || uLo > bHi {
		return res, fmt.Errorf("paper: union-find LER %.6g [%.6g,%.6g] outside the blossom's Wilson bound %.6g [%.6g,%.6g]",
			res.Ablated, uLo, uHi, res.Baseline, bLo, bHi)
	}
	return res, nil
}

// logicalRateOf runs the standard memory pipeline for a synthesis.
func logicalRateOf(s *synth.Synthesis, p float64, cfg Config) (float64, error) {
	m, err := experiment.NewMemory(s, 3*s.Layout.Code.Distance(), experiment.Options{})
	if err != nil {
		return 0, err
	}
	noisy, err := m.Noisy(noise.Model{GateError: p, IdleError: noise.DefaultIdleError})
	if err != nil {
		return 0, err
	}
	model, err := dem.FromCircuit(noisy)
	if err != nil {
		return 0, err
	}
	dec, err := decoder.New(model)
	if err != nil {
		return 0, err
	}
	sampler, err := frame.NewSampler(noisy, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return 0, err
	}
	stats, err := dec.DecodeBatch(sampler.Sample(cfg.Shots))
	if err != nil {
		return 0, err
	}
	return stats.LogicalErrorRate(), nil
}

// Ablations runs every design-choice ablation.
func Ablations(cfg Config) ([]AblationResult, error) {
	tree, err := AblationTreeMethod()
	if err != nil {
		return nil, err
	}
	hook, err := AblationHookOrientation(cfg)
	if err != nil {
		return nil, err
	}
	peel, err := AblationDecoderPeeling(cfg)
	if err != nil {
		return nil, err
	}
	ufres, err := AblationDecoderUnionFind(cfg)
	if err != nil {
		return nil, err
	}
	return []AblationResult{tree, hook, peel, ufres}, nil
}
