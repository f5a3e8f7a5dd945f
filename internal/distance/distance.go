// Package distance is a static fault-distance certifier for detector error
// models: it proves, rather than samples, the minimum number of elementary
// error mechanisms whose combined effect flips a logical observable while
// tripping no detector — the circuit-level effective distance of a
// synthesized memory.
//
// The certificate rests on the graphlike structure MWPM decoding silently
// relies on: when every mechanism flips at most two detectors, a mechanism
// is an edge of a multigraph over detectors plus one virtual boundary node
// (the same boundary convention as internal/matching), and an undetectable
// fault set is exactly an edge set with even degree at every detector — an
// element of the graph's cycle space. Labelling each edge with the
// observable bits its mechanism flips turns "undetectable logical error"
// into "cycle with odd observable parity", and the minimum-weight such
// cycle is found exactly by a parity-aware shortest-path search: Dijkstra
// over (node, frame-bit) states in the parity double cover, where
// traversing an edge whose mechanism flips the observable crosses between
// the even and odd layers. The shortest (v,0)→(v,1) closed walk, minimized
// over endpoints of observable-flipping edges, is the certified distance;
// its edge list is a concrete minimum-weight witness fault set.
//
// Mechanisms flipping three or more detectors (correlated depolarizing
// components, flagged hook errors) are not edges; the certifier proves
// each one decomposes into already-existing elementary edges whose
// observable masks XOR to the hyperedge's own mask — stim's
// decompose-errors discipline — with dem.Elementary.Decompose, the split
// the decoder builds its graph from. A consistent decomposition means the
// hyperedge introduces no detector-graph structure the elementary edges do
// not already carry, so the graph distance is stim's "shortest graphlike
// error". The certifier allows the split no new edges (the decoder adds
// them only for hyperedges with no split onto existing ones): a synthetic
// edge that exists in no physical mechanism can fabricate an artificially
// short "undetectable" cycle. Hyperedges that resist consistent
// decomposition are instead counted in Result.Undecomposable, marking the
// certificate as covering the graphlike sub-model only. For fully
// graphlike models the certificate is exact for the model itself, which
// the exhaustive differential tests pin down.
package distance

import (
	"fmt"
	"sort"

	"surfstitch/internal/dem"
)

// Fault is one elementary mechanism (or graphlike component) of a witness:
// the detectors it flips — one entry may be the boundary, omitted — and the
// observable bits it flips.
type Fault struct {
	Detectors []int  `json:"detectors"`
	Obs       uint64 `json:"obs"`
}

// String renders the fault compactly for reports.
func (f Fault) String() string {
	if len(f.Detectors) == 0 {
		return fmt.Sprintf("D[] obs=%b", f.Obs)
	}
	return fmt.Sprintf("D%v obs=%b", f.Detectors, f.Obs)
}

// Result is a distance certificate.
type Result struct {
	// Distance is the certified minimum number of elementary faults that
	// flip a logical observable without tripping any detector. Zero means
	// no such fault set exists at all (the model admits no undetectable
	// logical error); a real logical error always costs at least one fault.
	Distance int
	// Observable is the index of the observable bit achieving the minimum
	// (meaningful only when Distance > 0).
	Observable int
	// Witness is one minimum-weight undetectable logical fault set: its
	// faults flip no detector in combination, flip observable bit
	// Observable, and there are exactly Distance of them.
	Witness []Fault
	// Graphlike reports whether every mechanism flipped at most two
	// detectors. When false the certificate is exact for the decomposed
	// (decoder's) graph rather than the hypergraph model itself.
	Graphlike bool
	// Decomposed counts the hyperedge mechanisms proven to decompose into
	// existing elementary edges with observable-consistent masks.
	Decomposed int
	// Undecomposable counts the hyperedge mechanisms with no consistent
	// decomposition; when non-zero, the certificate covers only the
	// graphlike sub-model and those mechanisms are reported, not certified.
	Undecomposable int
}

// Certified reports whether an undetectable logical error exists at all.
func (r Result) Certified() bool { return r.Distance > 0 }

// edge is one unit-weight mechanism edge of the detector graph.
type edge struct {
	u, v int // node ids; either may be the boundary, and u == v is allowed
	obs  uint64
}

// Graph is a multigraph over detector nodes plus one virtual boundary node
// (index NumDetectors, matching the decoder's convention). Parallel edges
// with different observable masks are kept distinct — a pair of parallel
// edges whose masks differ is itself a weight-2 undetectable logical error,
// which merged adjacency would hide.
type Graph struct {
	numDet int
	numObs int
	edges  []edge
	adj    [][]int32 // node -> indices into edges
	seen   map[edge]bool
}

// NewGraph returns an empty detector graph. Nodes 0..numDetectors-1 are
// detectors; node numDetectors is the boundary.
func NewGraph(numDetectors, numObservables int) *Graph {
	return &Graph{
		numDet: numDetectors,
		numObs: numObservables,
		adj:    make([][]int32, numDetectors+1),
		seen:   map[edge]bool{},
	}
}

// Boundary returns the virtual boundary node index.
func (g *Graph) Boundary() int { return g.numDet }

// NumEdges returns the number of distinct mechanism edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge records one unit-weight mechanism flipping detectors u and v
// (either may be the boundary; u == v == boundary expresses a mechanism
// flipping no detector at all) and observable mask obs. Duplicate
// (u, v, obs) edges are interchangeable for distance purposes and are
// deduplicated.
func (g *Graph) AddEdge(u, v int, obs uint64) error {
	if u > v {
		u, v = v, u
	}
	if u < 0 || v > g.numDet {
		return fmt.Errorf("distance: edge (%d,%d) outside detector range [0,%d]", u, v, g.numDet)
	}
	if u == v && u != g.numDet {
		return fmt.Errorf("distance: self-loop on detector %d (a mechanism cannot flip a detector twice)", u)
	}
	e := edge{u: u, v: v, obs: obs}
	if g.seen[e] {
		return nil
	}
	g.seen[e] = true
	idx := int32(len(g.edges))
	g.edges = append(g.edges, e)
	g.adj[e.u] = append(g.adj[e.u], idx)
	if e.v != e.u {
		g.adj[e.v] = append(g.adj[e.v], idx)
	}
	return nil
}

// MinLogical computes the minimum-weight odd-parity cycle over every
// observable bit: the certified distance, the bit achieving it, and the
// witness edge set. dist == 0 reports that no undetectable logical error
// exists.
func (g *Graph) MinLogical() (dist int, obsBit int, witness []Fault) {
	best, bestBit := 0, 0
	var bestEdges []int32
	for o := 0; o < g.numObs; o++ {
		d, edges := g.minOddCycle(o, best)
		if d > 0 && (best == 0 || d < best) {
			best, bestBit, bestEdges = d, o, edges
		}
	}
	for _, ei := range bestEdges {
		witness = append(witness, g.fault(ei))
	}
	return best, bestBit, witness
}

// fault converts an edge back into witness form, dropping the boundary
// endpoint.
func (g *Graph) fault(ei int32) Fault {
	e := g.edges[ei]
	f := Fault{Obs: e.obs}
	if e.u != g.numDet {
		f.Detectors = append(f.Detectors, e.u)
	}
	if e.v != g.numDet && e.v != e.u {
		f.Detectors = append(f.Detectors, e.v)
	}
	return f
}

// minOddCycle finds the minimum-weight cycle with odd parity of observable
// bit o via the parity double cover. bound, when positive, prunes searches
// that cannot beat an already-known distance. Returns 0 when no odd cycle
// exists.
func (g *Graph) minOddCycle(o int, bound int) (int, []int32) {
	// Every odd cycle passes through an endpoint of an odd edge, so those
	// endpoints are the only sources worth searching from. Sorted order
	// keeps the witness deterministic.
	mark := map[int]bool{}
	for _, e := range g.edges {
		if e.obs>>uint(o)&1 == 1 {
			mark[e.u] = true
			mark[e.v] = true
		}
	}
	if len(mark) == 0 {
		return 0, nil
	}
	sources := make([]int, 0, len(mark))
	for v := range mark {
		sources = append(sources, v)
	}
	sort.Ints(sources)

	best := 0
	if bound > 0 {
		best = bound
	}
	var bestEdges []int32
	for _, s := range sources {
		d, edges := g.oddReturn(s, o, best)
		if d > 0 && (best == 0 || d < best) {
			best, bestEdges = d, edges
		}
	}
	if bestEdges == nil {
		return 0, nil
	}
	return best, bestEdges
}

// oddReturn runs the parity-aware shortest-path search from (s, even) to
// (s, odd): Dijkstra over (node, frame-bit) states with unit edge weights.
// bound, when positive, abandons paths that cannot beat it. Returns the
// path's edge list; 0 when unreachable within the bound.
func (g *Graph) oddReturn(s, o, bound int) (int, []int32) {
	n := (g.numDet + 1) * 2
	const unseen = int32(-1)
	dist := make([]int32, n)
	parentEdge := make([]int32, n)
	parentState := make([]int32, n)
	for i := range dist {
		dist[i] = unseen
	}
	start, target := int32(s*2), int32(s*2+1)
	dist[start] = 0
	// Unit weights make Dijkstra's priority queue a FIFO frontier: states
	// are settled in nondecreasing distance order, so a plain queue is the
	// exact same search without the heap overhead.
	queue := []int32{start}
	for head := 0; head < len(queue); head++ {
		st := queue[head]
		if st == target {
			break
		}
		d := dist[st]
		if bound > 0 && int(d)+1 >= bound && target != st {
			// Even one more edge cannot beat the incumbent certificate.
			continue
		}
		node, parity := int(st)/2, st&1
		for _, ei := range g.adj[node] {
			e := g.edges[ei]
			to := e.u + e.v - node // the other endpoint (same node for loops)
			np := parity
			if e.obs>>uint(o)&1 == 1 {
				np ^= 1
			}
			ns := int32(to*2) + np
			if dist[ns] != unseen {
				continue
			}
			dist[ns] = d + 1
			parentEdge[ns] = ei
			parentState[ns] = st
			queue = append(queue, ns)
		}
	}
	if dist[target] == unseen {
		return 0, nil
	}
	var edges []int32
	for st := target; st != start; st = parentState[st] {
		edges = append(edges, parentEdge[st])
	}
	return int(dist[target]), edges
}

// Certify builds the detector graph of the model — proving non-graphlike
// mechanisms decompose into existing elementary edges, or reporting the
// ones that do not — and certifies its fault distance.
func Certify(m *dem.Model) (Result, error) {
	g, res, err := FromDEM(m)
	if err != nil {
		return Result{}, err
	}
	res.Distance, res.Observable, res.Witness = g.MinLogical()
	return res, nil
}

// FromDEM converts a detector error model into the certifier's multigraph.
// The returned Result carries the graphlike-ness report; its distance
// fields are not yet populated (Certify does both steps).
func FromDEM(m *dem.Model) (*Graph, Result, error) {
	if m.NumObservables > 64 {
		return nil, Result{}, fmt.Errorf("distance: at most 64 observables supported, got %d", m.NumObservables)
	}
	g := NewGraph(m.NumDetectors, m.NumObservables)
	res := Result{Graphlike: true}

	// First pass: graphlike mechanisms become edges directly.
	b := g.Boundary()
	for _, mech := range m.Mechanisms {
		if err := checkMechanism(m, mech); err != nil {
			return nil, Result{}, err
		}
		var err error
		switch len(mech.Detectors) {
		case 0:
			err = g.AddEdge(b, b, mech.Obs)
		case 1:
			err = g.AddEdge(mech.Detectors[0], b, mech.Obs)
		case 2:
			err = g.AddEdge(mech.Detectors[0], mech.Detectors[1], mech.Obs)
		}
		if err != nil {
			return nil, Result{}, err
		}
	}

	// Second pass: each hyperedge must be provably redundant — some
	// partition of its detectors into existing elementary edges (pairs, or
	// singletons matched to the boundary) whose observable masks XOR to
	// the hyperedge's own mask. Such a mechanism adds nothing the graph
	// does not already express. No consistent decomposition means the
	// hyperedge genuinely exceeds the graph model; it is reported, never
	// approximated with new edges.
	elem := dem.NewElementary(m)
	for _, mech := range m.Mechanisms {
		if len(mech.Detectors) <= 2 {
			continue
		}
		res.Graphlike = false
		if _, ok := elem.Decompose(mech.Detectors, mech.Obs, 0); ok {
			res.Decomposed++
		} else {
			res.Undecomposable++
		}
	}
	return g, res, nil
}

// checkMechanism validates one mechanism's detector list: sorted, distinct,
// in range.
func checkMechanism(m *dem.Model, mech dem.Mechanism) error {
	prev := -1
	for _, d := range mech.Detectors {
		if d < 0 || d >= m.NumDetectors {
			return fmt.Errorf("distance: mechanism detector %d outside [0,%d)", d, m.NumDetectors)
		}
		if d <= prev {
			return fmt.Errorf("distance: mechanism detectors %v not sorted and distinct", mech.Detectors)
		}
		prev = d
	}
	return nil
}
