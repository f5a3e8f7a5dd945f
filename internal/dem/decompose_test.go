package dem_test

import (
	"math/rand"
	"reflect"
	"testing"

	"surfstitch/internal/dem"
)

// elementary builds the index of a model with numDet detectors holding the
// given mechanisms.
func elementary(numDet int, mechs ...dem.Mechanism) *dem.Elementary {
	return dem.NewElementary(&dem.Model{NumDetectors: numDet, NumObservables: 2, Mechanisms: mechs})
}

func mech(obs uint64, dets ...int) dem.Mechanism {
	return dem.Mechanism{Detectors: dets, Obs: obs, Prob: 0.01}
}

func checkSplit(t *testing.T, e *dem.Elementary, dets []int, obs uint64, maxNew int, want []dem.Edge) {
	t.Helper()
	got, ok := e.Decompose(dets, obs, maxNew)
	if want == nil {
		if ok {
			t.Fatalf("Decompose(%v, %b, %d) = %v, want no split", dets, obs, maxNew, got)
		}
		return
	}
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Decompose(%v, %b, %d) = %v, %v; want %v", dets, obs, maxNew, got, ok, want)
	}
}

func TestDecomposeAllPairsExist(t *testing.T) {
	e := elementary(4, mech(0, 0, 1), mech(0, 2, 3))
	checkSplit(t, e, []int{0, 1, 2, 3}, 0, 0, []dem.Edge{{0, 1, 0}, {2, 3, 0}})
}

func TestDecomposeLeftoverPair(t *testing.T) {
	// Only {0,1} exists: the leftover {4,7} becomes one new edge carrying
	// the residual mask, and no split without it exists.
	e := elementary(8, mech(0, 0, 1))
	checkSplit(t, e, []int{0, 1, 4, 7}, 1, 0, nil)
	checkSplit(t, e, []int{0, 1, 4, 7}, 1, 1, []dem.Edge{{0, 1, 0}, {4, 7, 1}})
}

func TestDecomposeBoundarySingles(t *testing.T) {
	// No pairwise edges exist but every detector touches the boundary.
	e := elementary(3, mech(0, 0), mech(0, 1), mech(0, 2))
	checkSplit(t, e, []int{0, 1, 2}, 0, 0, []dem.Edge{{0, 3, 0}, {1, 3, 0}, {2, 3, 0}})
}

func TestDecomposeSearchesPastFirstPair(t *testing.T) {
	// Pairing (0,1) first forces detector 2 onto the boundary with the
	// wrong mask; the consistent split matches 0 to the boundary instead.
	e := elementary(3, mech(1, 0, 1), mech(0, 0), mech(0, 1, 2), mech(0, 2))
	checkSplit(t, e, []int{0, 1, 2}, 0, 0, []dem.Edge{{0, 3, 0}, {1, 2, 0}})
}

func TestDecomposeParallelMasks(t *testing.T) {
	// {0,1} occurs with masks 1 then 0: the search tries both.
	e := elementary(4, mech(1, 0, 1), mech(0, 0, 1), mech(0, 2, 3))
	checkSplit(t, e, []int{0, 1, 2, 3}, 0, 0, []dem.Edge{{0, 1, 0}, {2, 3, 0}})
	checkSplit(t, e, []int{0, 1, 2, 3}, 1, 0, []dem.Edge{{0, 1, 1}, {2, 3, 0}})
}

func TestDecomposeFewestNewEdges(t *testing.T) {
	// With no elementary edges at all, two new pairs are needed; only the
	// first carries the mask.
	e := elementary(4)
	checkSplit(t, e, []int{0, 1, 2, 3}, 1, 1, nil)
	checkSplit(t, e, []int{0, 1, 2, 3}, 1, 4, []dem.Edge{{0, 1, 1}, {2, 3, 0}})
}

func TestDecomposeCompleteInconsistent(t *testing.T) {
	// Every pair and boundary edge exists with mask 0, so mask 1 has no
	// split at any budget: new edges only go where none exists.
	e := elementary(3, mech(0, 0, 1), mech(0, 0, 2), mech(0, 1, 2), mech(0, 0), mech(0, 1), mech(0, 2))
	checkSplit(t, e, []int{0, 1, 2}, 1, 3, nil)
}

// reachable returns every mask XOR that some split of dets into existing
// elementary edges achieves, enumerating all splits and mask choices.
func reachable(dets []int, masks map[[2]int][]uint64, boundary int) map[uint64]bool {
	out := map[uint64]bool{}
	var rec func(rest []int, acc uint64)
	rec = func(rest []int, acc uint64) {
		if len(rest) == 0 {
			out[acc] = true
			return
		}
		a := rest[0]
		for _, m := range masks[[2]int{a, boundary}] {
			rec(rest[1:], acc^m)
		}
		for i := 1; i < len(rest); i++ {
			others := append(append([]int(nil), rest[1:i]...), rest[i+1:]...)
			for _, m := range masks[[2]int{a, rest[i]}] {
				rec(others, acc^m)
			}
		}
	}
	rec(dets, 0)
	return out
}

// FuzzDecompose checks Decompose on random elementary graphs and hyperedges
// of up to six detectors: the components partition the detectors, their
// masks XOR to the hyperedge's, at most maxNew are not existing edges, each
// of those on a pair with no elementary mechanism, and no fewer would do;
// with maxNew = 0 a split is found exactly when brute-force enumeration
// finds one.
func FuzzDecompose(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(128), uint8(0))
	f.Add(int64(2), uint8(4), uint8(40), uint8(1))
	f.Add(int64(3), uint8(6), uint8(230), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size, density, budget uint8) {
		rng := rand.New(rand.NewSource(seed))
		numDet := 3 + int(size)%5
		boundary := numDet
		maxNew := int(budget) % 4
		masks := map[[2]int][]uint64{}
		model := &dem.Model{NumDetectors: numDet, NumObservables: 2}
		addMech := func(dets []int, obs uint64) {
			model.Mechanisms = append(model.Mechanisms, dem.Mechanism{Detectors: dets, Obs: obs, Prob: 0.01})
			k := [2]int{dets[0], boundary}
			if len(dets) == 2 {
				k[1] = dets[1]
			}
			for _, m := range masks[k] {
				if m == obs {
					return
				}
			}
			masks[k] = append(masks[k], obs)
		}
		for u := 0; u < numDet; u++ {
			for v := u + 1; v <= numDet; v++ {
				for rng.Intn(256) < int(density) && len(masks[[2]int{u, v}]) < 3 {
					if v == boundary {
						addMech([]int{u}, uint64(rng.Intn(4)))
					} else {
						addMech([]int{u, v}, uint64(rng.Intn(4)))
					}
				}
			}
		}
		k := 3 + rng.Intn(numDet-2)
		if k > 6 {
			k = 6
		}
		dets := rng.Perm(numDet)[:k]
		for i := 1; i < len(dets); i++ {
			for j := i; j > 0 && dets[j] < dets[j-1]; j-- {
				dets[j], dets[j-1] = dets[j-1], dets[j]
			}
		}
		obs := uint64(rng.Intn(4))
		e := dem.NewElementary(model)

		comps, ok := e.Decompose(dets, obs, maxNew)
		if maxNew == 0 && ok != reachable(dets, masks, boundary)[obs] {
			t.Fatalf("Decompose(%v, %b, 0) ok=%v, brute force disagrees (masks %v)", dets, obs, ok, masks)
		}
		if !ok {
			return
		}
		covered := map[int]int{}
		var xor uint64
		fresh := 0
		for _, c := range comps {
			if c.U >= c.V || c.V > boundary {
				t.Fatalf("component %v out of order or range", c)
			}
			covered[c.U]++
			if c.V != boundary {
				covered[c.V]++
			}
			xor ^= c.Obs
			existing := false
			for _, m := range masks[[2]int{c.U, c.V}] {
				existing = existing || m == c.Obs
			}
			if !existing {
				if len(masks[[2]int{c.U, c.V}]) > 0 {
					t.Fatalf("new component %v on an existing pair", c)
				}
				fresh++
			}
		}
		if len(covered) != len(dets) {
			t.Fatalf("components %v do not partition %v", comps, dets)
		}
		for _, d := range dets {
			if covered[d] != 1 {
				t.Fatalf("components %v cover detector %d %d times", comps, d, covered[d])
			}
		}
		if xor != obs {
			t.Fatalf("components %v XOR to %b, want %b", comps, xor, obs)
		}
		if fresh > maxNew {
			t.Fatalf("components %v use %d new edges, budget %d", comps, fresh, maxNew)
		}
		if fresh > 0 {
			if _, fewer := e.Decompose(dets, obs, fresh-1); fewer {
				t.Fatalf("components %v use %d new edges, but %d suffice", comps, fresh, fresh-1)
			}
		}
	})
}
