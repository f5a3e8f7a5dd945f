package dem

// Edge is one component of a hyperedge decomposition: detectors U < V, where
// V is the boundary index (the model's NumDetectors) for a detector matched
// to the boundary, and the observable mask the component carries.
type Edge struct {
	U, V int
	Obs  uint64
}

// Elementary indexes a model's elementary mechanisms, those flipping one or
// two detectors, by detector pair: each pair (a detector and the boundary,
// for one-detector mechanisms) maps to the distinct observable masks it
// occurs with, in mechanism order. It is the graph that hyperedges are
// decomposed onto, the role of stim's decompose_errors.
type Elementary struct {
	boundary int
	masks    map[[2]int][]uint64
}

// NewElementary indexes the elementary mechanisms of m.
func NewElementary(m *Model) *Elementary {
	e := &Elementary{boundary: m.NumDetectors, masks: map[[2]int][]uint64{}}
	for _, mech := range m.Mechanisms {
		switch len(mech.Detectors) {
		case 1:
			e.add(mech.Detectors[0], e.boundary, mech.Obs)
		case 2:
			e.add(mech.Detectors[0], mech.Detectors[1], mech.Obs)
		}
	}
	return e
}

func (e *Elementary) add(u, v int, obs uint64) {
	if u > v {
		u, v = v, u
	}
	k := [2]int{u, v}
	for _, m := range e.masks[k] {
		if m == obs {
			return
		}
	}
	e.masks[k] = append(e.masks[k], obs)
}

// Decompose splits the sorted detector set dets into components whose
// observable masks XOR to obs: existing elementary edges, plus at most maxNew
// new components on pairs (or detector and boundary) that carry no
// elementary mechanism. The first new component carries the residual mask
// and any others carry 0. It returns a split with the fewest new
// components, or false when none within maxNew exists. With maxNew =
// len(dets) it fails only when every pair of dets and every detector's
// boundary edge already exists and no choice of their masks XORs to obs.
//
// The search is exhaustive over splits and mask choices, which is cheap for
// the handful of detectors a hyperedge flips. At each step the first
// remaining detector is paired with a later one through an existing edge
// (later detectors in order, masks in mechanism order), then matched to the
// boundary through an existing edge, then given a new pair, then a new
// boundary edge. The order fixes which split is returned, and so the
// decoder's graph.
func (e *Elementary) Decompose(dets []int, obs uint64, maxNew int) ([]Edge, bool) {
	s := splitter{e: e, obs: obs}
	for budget := 0; budget <= maxNew; budget++ {
		s.comps, s.firstNew = s.comps[:0], -1
		if s.split(dets, 0, budget) {
			return s.comps, true
		}
	}
	return nil, false
}

// splitter is the state of one Decompose search: the components chosen so
// far and the index of the first new one (-1 when none).
type splitter struct {
	e        *Elementary
	obs      uint64
	comps    []Edge
	firstNew int
}

// split covers rest with components; acc is the XOR of the existing
// components' masks so far and budget the new components still allowed.
func (s *splitter) split(rest []int, acc uint64, budget int) bool {
	if len(rest) == 0 {
		if s.firstNew < 0 {
			return acc == s.obs
		}
		s.comps[s.firstNew].Obs = acc ^ s.obs
		return true
	}
	// Partner i of a is rest[i], or the boundary for i == len(rest).
	a := rest[0]
	partner := func(i int) int {
		if i == len(rest) {
			return s.e.boundary
		}
		return rest[i]
	}
	for i := 1; i <= len(rest); i++ {
		v := partner(i)
		if ms := s.e.masks[[2]int{a, v}]; len(ms) > 0 {
			others := without(rest, i)
			for _, m := range ms {
				if s.push(Edge{a, v, m}, others, acc^m, budget) {
					return true
				}
			}
		}
	}
	// Only a pair that carries no elementary mechanism can be new; its mask
	// is settled once the split is complete.
	for i := 1; budget > 0 && i <= len(rest); i++ {
		v := partner(i)
		if len(s.e.masks[[2]int{a, v}]) > 0 {
			continue
		}
		first := s.firstNew < 0
		if first {
			s.firstNew = len(s.comps)
		}
		if s.push(Edge{a, v, 0}, without(rest, i), acc, budget-1) {
			return true
		}
		if first {
			s.firstNew = -1
		}
	}
	return false
}

// push tries component c and backtracks when the rest cannot be covered.
func (s *splitter) push(c Edge, rest []int, acc uint64, budget int) bool {
	s.comps = append(s.comps, c)
	if s.split(rest, acc, budget) {
		return true
	}
	s.comps = s.comps[:len(s.comps)-1]
	return false
}

// without returns rest[1:] with rest[i] removed; i == len(rest) removes
// nothing more.
func without(rest []int, i int) []int {
	if i == len(rest) {
		return rest[1:]
	}
	out := make([]int, 0, len(rest)-2)
	out = append(out, rest[1:i]...)
	return append(out, rest[i+1:]...)
}
