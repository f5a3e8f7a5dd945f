package matching

import (
	"math/rand"
	"testing"
)

// completeGraph builds K_n with random integer weights in [0, 100).
func completeGraph(rng *rand.Rand, n int) []Edge {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{u, v, int64(rng.Intn(100))})
		}
	}
	return edges
}

// sameMate fails the test unless the two mate arrays are identical.
func sameMate(t *testing.T, what string, got, want []int, edges []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scratch mate=%v, one-shot mate=%v", what, got, want)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: scratch mate=%v, one-shot mate=%v\nedges=%v", what, got, want, edges)
		}
	}
}

func TestScratchMatchesOneShotOnCompleteGraphs(t *testing.T) {
	// One Scratch reused across graphs of varying size must return exactly
	// what a fresh matcher returns — including after shrinking, growing,
	// and revisiting a size (stale-buffer hazards) — in both modes.
	rng := rand.New(rand.NewSource(11))
	var s Scratch
	sizes := []int{4, 10, 2, 16, 6, 16, 4, 12, 8, 2, 15, 7}
	for _, n := range sizes {
		edges := completeGraph(rng, n)
		for _, maxCard := range []bool{false, true} {
			want := MaxWeightMatching(n, edges, maxCard)
			got := s.MaxWeightMatching(n, edges, maxCard)
			sameMate(t, "complete graph", got, want, edges)
		}
	}
}

func TestScratchMatchesOneShotOnSparseGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, Edge{u, v, int64(rng.Intn(100))})
				}
			}
		}
		maxCard := trial%2 == 1
		want := MaxWeightMatching(n, edges, maxCard)
		got := s.MaxWeightMatching(n, edges, maxCard)
		sameMate(t, "sparse graph", got, want, edges)
		if gw, ww := MatchingWeight(edges, got), MatchingWeight(edges, want); gw != ww {
			t.Fatalf("trial %d: scratch weight %d != one-shot weight %d", trial, gw, ww)
		}
	}
}

func TestScratchErrorCases(t *testing.T) {
	// Degenerate inputs: an empty graph, an edgeless graph and a graph whose
	// only edge has negative weight all leave every vertex unmatched.
	var s Scratch
	if mate := s.MaxWeightMatching(0, nil, false); len(mate) != 0 {
		t.Fatalf("empty graph: mate=%v", mate)
	}
	for _, tc := range []struct {
		n     int
		edges []Edge
	}{
		{3, nil},
		{2, []Edge{{0, 1, -4}}},
	} {
		mate := s.MaxWeightMatching(tc.n, tc.edges, false)
		for v, m := range mate {
			if m != noNode {
				t.Fatalf("n=%d edges=%v: vertex %d matched to %d", tc.n, tc.edges, v, m)
			}
		}
	}
	// A graph with an invalid edge panics and must not poison the next call.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("self-loop accepted")
			}
		}()
		s.MaxWeightMatching(2, []Edge{{1, 1, 3}}, false)
	}()
	mate := s.MaxWeightMatching(2, []Edge{{0, 1, 5}}, false)
	if mate[0] != 1 || mate[1] != 0 {
		t.Fatalf("after degenerate calls: mate=%v", mate)
	}
}

func TestScratchReturnedSliceReusedAcrossCalls(t *testing.T) {
	// Documented contract: the returned mate slice belongs to the Scratch and
	// is overwritten by the next call.
	var s Scratch
	first := s.MaxWeightMatching(2, []Edge{{0, 1, 5}}, false)
	snapshot := append([]int(nil), first...)
	s.MaxWeightMatching(2, []Edge{{0, 1, 7}}, false)
	if first[0] != snapshot[0] || first[1] != snapshot[1] {
		// Same-size reuse keeps contents equal here, but the identity must hold.
		t.Fatalf("mate contents changed unexpectedly: %v vs %v", first, snapshot)
	}
	second := s.MaxWeightMatching(2, []Edge{{0, 1, 9}}, false)
	if &first[0] != &second[0] {
		t.Fatal("scratch did not reuse its mate buffer for a same-size graph")
	}
}

func TestScratchZeroAllocSteadyState(t *testing.T) {
	// After one pass over a fixed set of graphs has grown every buffer, a
	// second pass — nested blossoms, expansions and augmentations included —
	// must not allocate.
	rng := rand.New(rand.NewSource(5))
	var graphs [][]Edge
	var sizes []int
	for i := 0; i < 40; i++ {
		n := 4 + rng.Intn(20)
		sizes = append(sizes, n)
		graphs = append(graphs, completeGraph(rng, n))
	}
	var s Scratch
	pass := func() {
		for i, edges := range graphs {
			s.MaxWeightMatching(sizes[i], edges, false)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("scratch matcher allocates %.1f per pass at steady state; want 0", allocs)
	}
}
