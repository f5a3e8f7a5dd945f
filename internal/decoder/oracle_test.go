package decoder

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/matching"
)

// The exactness oracle: an independent minimum-weight matching of a defect
// set, built the textbook way. It shares nothing with the production
// matching path but the decoder's adjacency and quantization:
//   - rows come from refDijkstra, an unbounded container/heap Dijkstra;
//   - the problem is a minimum-weight perfect matching on 2k nodes, the k
//     defects plus one boundary image each, the images joined by a
//     zero-weight clique so any subset of them can pair off among
//     themselves.
// Production matches on the k defects alone with savings weights; the two
// must agree on the matched weight and on unmatchability for every defect
// set. Predictions may differ only where two matchings tie exactly.

type refItem struct {
	node int
	dist float64
}

type refPQ []refItem

func (p refPQ) Len() int            { return len(p) }
func (p refPQ) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p refPQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x interface{}) { *p = append(*p, x.(refItem)) }
func (p *refPQ) Pop() interface{} {
	old := *p
	it := old[len(old)-1]
	*p = old[:len(old)-1]
	return it
}

// refDijkstra is the reference shortest-path row from src: every node
// reachable from src is settled, with no radius.
func refDijkstra(d *Decoder, src int) *pathRow {
	n := d.numDet + 1
	dist := make([]float64, n)
	mask := make([]uint64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := &refPQ{{node: src}}
	for q.Len() > 0 {
		u := heap.Pop(q).(refItem).node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range d.adj[u] {
			if nd := dist[u] + e.weight; nd < dist[e.to] {
				dist[e.to] = nd
				mask[e.to] = mask[u] ^ e.obs
				heap.Push(q, refItem{node: e.to, dist: nd})
			}
		}
	}
	return &pathRow{dist: dist, mask: mask}
}

// oracle memoizes refDijkstra rows for one decoder.
type oracle struct {
	d    *Decoder
	rows map[int]*pathRow
}

func newOracle(d *Decoder) *oracle {
	return &oracle{d: d, rows: map[int]*pathRow{}}
}

func (o *oracle) row(src int) *pathRow {
	r, ok := o.rows[src]
	if !ok {
		r = refDijkstra(o.d, src)
		o.rows[src] = r
	}
	return r
}

// match returns the minimum matched weight of the defect set, or an error
// when no perfect matching of the 2k-node graph exists.
func (o *oracle) match(defects []int) (int64, error) {
	k := len(defects)
	var edges []matching.Edge
	for i := 0; i < k; i++ {
		ri := o.row(defects[i])
		for j := i + 1; j < k; j++ {
			if w := quantWeight(ri.dist[defects[j]]); w >= 0 {
				edges = append(edges, matching.Edge{U: i, V: j, W: w})
			}
			edges = append(edges, matching.Edge{U: k + i, V: k + j, W: 0})
		}
		if w := quantWeight(ri.dist[o.d.boundary]); w >= 0 {
			edges = append(edges, matching.Edge{U: i, V: k + i, W: w})
		}
	}
	mate, err := matching.MinWeightPerfectMatching(2*k, edges)
	if err != nil {
		return 0, err
	}
	return matching.MatchingWeight(edges, mate), nil
}

// weight evaluates a defect matching (mate[i] is defect i's partner index,
// or -1 for the boundary) on the oracle's rows.
func (o *oracle) weight(defects, mate []int) int64 {
	var total int64
	for i, m := range mate {
		ri := o.row(defects[i])
		switch {
		case m < 0:
			total += quantWeight(ri.dist[o.d.boundary])
		case m > i:
			total += quantWeight(ri.dist[defects[m]])
		}
	}
	return total
}

// blossomRef is the differential reference: the production blossom on
// every non-empty defect set, bypassing the k<=2 closed forms. Each call
// first checks the blossom's matching against the oracle: the same
// unmatchable status and exactly the minimum matched weight.
func blossomRef(t *testing.T, o *oracle, defects []int) (uint64, error) {
	t.Helper()
	if len(defects) == 0 {
		return 0, nil
	}
	mate, err := o.d.matchDefects(defects, new(Scratch))
	want, wantErr := o.match(defects)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("defects %v: blossom err=%v, oracle err=%v", defects, err, wantErr)
	}
	if err != nil {
		return 0, err
	}
	if got := o.weight(defects, mate); got != want {
		t.Fatalf("defects %v: blossom matched weight %d, oracle minimum %d", defects, got, want)
	}
	return o.d.decodeBlossom(defects, nil)
}

// withIsolatedComponent appends extra detectors to model that form a
// connected component of pair mechanisms with no path to the boundary.
func withIsolatedComponent(rng *rand.Rand, model *dem.Model, extra int) *dem.Model {
	base := model.NumDetectors
	out := &dem.Model{NumDetectors: base + extra, NumObservables: model.NumObservables}
	out.Mechanisms = append(out.Mechanisms, model.Mechanisms...)
	pair := func(u, v int) {
		out.Mechanisms = append(out.Mechanisms, dem.Mechanism{
			Detectors: []int{base + u, base + v},
			Obs:       uint64(rng.Intn(1 << uint(model.NumObservables))),
			Prob:      0.001 + 0.2*rng.Float64(),
		})
	}
	for i := 0; i+1 < extra; i++ {
		pair(i, i+1)
	}
	for i := 0; i < extra; i++ {
		if u, v := rng.Intn(extra), rng.Intn(extra); u < v {
			pair(u, v)
		}
	}
	return out
}

// boundaryComponentModels are random models with and without an isolated
// boundaryless component.
func boundaryComponentModels(seeds int) []*dem.Model {
	var models []*dem.Model
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		numDet := 5 + rng.Intn(36)
		model := randomModel(rng, numDet, 1+rng.Intn(3), 3*numDet)
		models = append(models, model, withIsolatedComponent(rng, model, 3+rng.Intn(8)))
	}
	return models
}

// uniformProb returns a copy of model with every mechanism at probability
// p: equal edge weights make equal-length paths with different observable
// masks common, so shortest-path tie-breaking shows in the rows.
func uniformProb(model *dem.Model, p float64) *dem.Model {
	out := *model
	out.Mechanisms = append([]dem.Mechanism(nil), model.Mechanisms...)
	for i := range out.Mechanisms {
		out.Mechanisms[i].Prob = p
	}
	return &out
}

func TestRowsMatchReferenceDijkstra(t *testing.T) {
	// Every production row is bit-identical, distance and observable mask
	// on every node, to the container/heap reference. Every reachable node
	// also lies within wB(src) + wB(v) of src (the path through the
	// boundary node), so no search radius of the form wB(src) + max wB
	// could ever stop a row early: rows are always complete.
	var models []*dem.Model
	for _, kind := range []device.Kind{
		device.KindSquare, device.KindHexagon, device.KindOctagon,
		device.KindHeavySquare, device.KindHeavyHexagon,
	} {
		models = append(models, synthesizedMemory(t, kind, 3))
	}
	for _, model := range boundaryComponentModels(10) {
		models = append(models, model, uniformProb(model, 0.01))
	}
	for mi, model := range models {
		dec, err := New(model)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(dec)
		bnd := refDijkstra(dec, dec.boundary)
		for src := 0; src < dec.numDet; src++ {
			got, want := dec.row(src), o.row(src)
			for v := range want.dist {
				if math.Float64bits(got.dist[v]) != math.Float64bits(want.dist[v]) || got.mask[v] != want.mask[v] {
					t.Fatalf("model %d row %d node %d: (%v, %b), reference (%v, %b)",
						mi, src, v, got.dist[v], got.mask[v], want.dist[v], want.mask[v])
				}
				if v < dec.numDet && !math.IsInf(want.dist[v], 1) && !math.IsInf(bnd.dist[src], 1) {
					if via := bnd.dist[src] + bnd.dist[v]; want.dist[v] > via*(1+1e-12) {
						t.Fatalf("model %d: dist(%d,%d)=%v exceeds the boundary path %v", mi, src, v, want.dist[v], via)
					}
				}
			}
		}
	}
}

func TestBoundarylessDefectsMatchOracle(t *testing.T) {
	// Defect sets that reach into a component with no boundary exercise the
	// far boundary weight: the blossom must pair those defects exactly when
	// the oracle's perfect matching exists, at the oracle's weight.
	for mi, model := range boundaryComponentModels(10) {
		dec, err := New(model)
		if err != nil {
			t.Fatal(err)
		}
		s, o := dec.NewScratch(), newOracle(dec)
		rng := rand.New(rand.NewSource(int64(mi)))
		errs := 0
		for trial := 0; trial < 200; trial++ {
			if _, err := diffDecoders(t, o, s, randomDefects(rng, dec.numDet, 10)); err != nil {
				errs++
			}
		}
		if mi%2 == 1 && errs == 0 {
			t.Fatalf("model %d: no unmatchable defect set drawn; the test lost its boundaryless coverage", mi)
		}
	}
}
