package decoder

import (
	"testing"

	"surfstitch/internal/dem"
)

func TestHyperedgeDecomposedIntoElementaryEdges(t *testing.T) {
	// Model: elementary mechanisms {0,1} (which flips the observable) and
	// {2,3}, plus a hyperedge {0,1,2,3} with the same combined observable
	// effect. The hyperedge decomposes onto the two existing edges, so
	// decoding its defect set reproduces its observable flip.
	model := &dem.Model{
		NumDetectors:   4,
		NumObservables: 1,
		Mechanisms: []dem.Mechanism{
			{Detectors: []int{0, 1}, Obs: 1, Prob: 0.01},
			{Detectors: []int{2, 3}, Prob: 0.01},
			{Detectors: []int{0, 1, 2, 3}, Obs: 1, Prob: 0.002},
			{Detectors: []int{0}, Prob: 1e-6},
			{Detectors: []int{3}, Prob: 1e-6},
		},
	}
	d, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := d.Decode([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 1 {
		t.Errorf("hyperedge observable lost in decomposition: pred=%b", pred)
	}
	// The pure pair {2,3} decodes without any flip.
	pred, err = d.Decode([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 0 {
		t.Errorf("pair {2,3} should not flip the observable: pred=%b", pred)
	}
}

func TestHookStyleResidualEdge(t *testing.T) {
	// A flag detector (4) with its own boundary mechanism, plus a hook
	// hyperedge {0, 1, 4} whose data part {0,1} does NOT exist as an
	// elementary edge: the peeled flag leaves {0,1} as a residual edge.
	model := &dem.Model{
		NumDetectors:   5,
		NumObservables: 1,
		Mechanisms: []dem.Mechanism{
			{Detectors: []int{4}, Prob: 0.01},  // flag measurement error
			{Detectors: []int{0}, Prob: 0.004}, // boundary edges
			{Detectors: []int{1}, Prob: 0.004},
			{Detectors: []int{0, 1, 4}, Obs: 1, Prob: 0.002}, // hook
		},
	}
	d, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	// The hook defect set must decode to the hook's observable effect:
	// matching (0,1) through the residual edge plus flag->boundary.
	pred, err := d.Decode([]int{0, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 1 {
		t.Errorf("hook decomposition lost the observable: pred=%b", pred)
	}
}

func TestDecoderUsesResidualEdgeWeight(t *testing.T) {
	// The residual edge {0,1} from the previous scenario should be cheaper
	// than two boundary matches when the hook is likelier than the two
	// boundary mechanisms combined.
	model := &dem.Model{
		NumDetectors:   3,
		NumObservables: 1,
		Mechanisms: []dem.Mechanism{
			{Detectors: []int{2}, Prob: 0.05},
			{Detectors: []int{0}, Prob: 1e-6},
			{Detectors: []int{1}, Prob: 1e-6},
			{Detectors: []int{0, 1, 2}, Obs: 1, Prob: 0.04},
		},
	}
	d, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := d.Decode([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Matching 0-1 through the residual hook edge flips the observable;
	// matching both to the boundary (prob 1e-6 each) would not — the
	// decoder must prefer the likely hook edge.
	if pred != 1 {
		t.Errorf("decoder ignored the cheap residual edge: pred=%b", pred)
	}
}

func TestHyperedgeKeepsBoundaryMask(t *testing.T) {
	// Splitting the hyperedge {0,1,2} as (0,1) + 2 would need mask 1 on
	// detector 2's boundary edge, where only mask 0 exists; the split
	// 0 + (1,2) uses existing edges as they are. Writing the residual onto
	// the likelier boundary edge would make a lone defect on 2 decode as a
	// logical flip.
	model := &dem.Model{
		NumDetectors:   3,
		NumObservables: 1,
		Mechanisms: []dem.Mechanism{
			{Detectors: []int{0, 1}, Obs: 1, Prob: 0.01},
			{Detectors: []int{0}, Prob: 0.01},
			{Detectors: []int{1, 2}, Prob: 0.01},
			{Detectors: []int{2}, Prob: 0.01},
			{Detectors: []int{0, 1, 2}, Prob: 0.05},
		},
	}
	d, err := New(model)
	if err != nil {
		t.Fatal(err)
	}
	for _, defects := range [][]int{{2}, {0, 1, 2}} {
		pred, err := d.Decode(defects)
		if err != nil {
			t.Fatal(err)
		}
		if pred != 0 {
			t.Errorf("Decode(%v) = %b, want 0", defects, pred)
		}
	}
}
