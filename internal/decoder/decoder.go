// Package decoder implements minimum-weight perfect matching decoding over a
// detector error model: the PyMatching role in the paper's evaluation
// pipeline.
//
// The detector error model's mechanisms become the weighted edges of a
// matching graph over detectors plus a single boundary node. A mechanism
// flipping more than two detectors is split by dem.Elementary.Decompose,
// the split the distance certifier checks: onto elementary edges already in
// the graph whose observable masks XOR to its own (stim's
// decompose_errors), or, when no such split exists, with the fewest new
// edges on detector pairs that carry no elementary mechanism.
// Decoding a shot matches its flipped detectors (defects) pairwise — or to
// the boundary — along minimum-weight paths, and predicts the logical
// observable flips as the XOR of the observable masks along the matched
// paths.
//
// The matching is exact. Shortest-path rows come from a lazily run
// Dijkstra per defect. One and two defects decode in closed form. Larger
// sets run the blossom matcher on the defects alone, with each pair
// weighted by its savings over sending both defects to the boundary
// (boundary weights minus pair weight). Pairs without positive savings
// cannot improve on the boundary and get no edge, so the matcher sees a
// sparse graph on the defects alone.
package decoder

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"runtime"
	"sync"
	"sync/atomic"

	"surfstitch/internal/dem"
	"surfstitch/internal/frame"
	"surfstitch/internal/matching"
	"surfstitch/internal/obs"
	"surfstitch/internal/uf"
)

// weightScale converts log-likelihood edge weights to the integer domain of
// the blossom matcher.
const weightScale = 1024.0

// Decoder is a compiled MWPM decoder for a fixed detector error model.
//
// Every shot takes one decode path: shortest-path rows are computed lazily
// per source on first use, one- and two-defect syndromes decode in closed
// form, and k>=3 defect sets run the savings matching (or union-find under
// Options.UnionFind). The closed forms are bit-identical to the blossom on
// the same defect set.
type Decoder struct {
	numDet int
	numObs int

	// boundary is the virtual node index (== numDet).
	boundary int

	// adjacency of the matching graph: adj[u] lists (v, weight, obs), in a
	// deterministic (sorted-edge) order so that every decoder compiled from
	// the same model makes identical shortest-path tie-breaks.
	adj [][]halfEdge

	opts Options

	// rows holds the lazily computed per-source shortest-path rows. A slot
	// is nil until the source is first used in a decode.
	rows []atomic.Pointer[pathRow]

	// ufg is the lazily compiled union-find decoding graph: a pure function
	// of the immutable adjacency, CAS-published exactly like rows, so every
	// caller observes the same instance.
	ufg atomic.Pointer[uf.Graph]

	// UndetectableObs is the bitmask of observables flipped by at least one
	// mechanism that trips no detector: an irreducible logical error floor.
	UndetectableObs uint64
}

// pathRow is one source's shortest-path distances and path observable-mask
// XORs to every node of the matching graph. Rows are immutable once
// published.
type pathRow struct {
	dist []float64
	mask []uint64
}

type halfEdge struct {
	to     int
	weight float64
	obs    uint64
}

// Options tunes decoder compilation.
type Options struct {
	// UnionFind routes k>=3 defect sets through the almost-linear
	// union-find decoder (internal/uf) instead of blossom matching.
	// The k<=2 closed forms still apply. UF corrections are valid but only
	// approximately minimum-weight; undecodable clusters (odd parity on a
	// boundaryless component) escalate back to blossom.
	UnionFind bool
}

// New compiles the detector error model into a decoder.
func New(model *dem.Model) (*Decoder, error) {
	return NewWithOptions(model, Options{})
}

// NewWithOptions compiles the detector error model with explicit options.
func NewWithOptions(model *dem.Model, opts Options) (*Decoder, error) {
	d := &Decoder{
		numDet:   model.NumDetectors,
		numObs:   model.NumObservables,
		boundary: model.NumDetectors,
	}
	n := d.numDet + 1
	// An edge's probability XOR-combines its contributions; its mask is
	// that of the last contribution likelier than all earlier ones combined.
	type key struct{ u, v int }
	type edge struct {
		p   float64
		obs uint64
	}
	edges := map[key]edge{}
	addEdge := func(u, v int, p float64, obs uint64) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		k := key{u, v}
		e := edges[k]
		if p > e.p {
			e.obs = obs
		}
		e.p = e.p + p - 2*e.p*p
		edges[k] = e
	}
	// First pass: elementary mechanisms (at most two detectors) become graph
	// edges directly.
	for _, mech := range model.Mechanisms {
		switch len(mech.Detectors) {
		case 0:
			if mech.Obs != 0 {
				d.UndetectableObs |= mech.Obs
			}
		case 1:
			addEdge(mech.Detectors[0], d.boundary, mech.Prob, mech.Obs)
		case 2:
			addEdge(mech.Detectors[0], mech.Detectors[1], mech.Prob, mech.Obs)
		}
	}
	// Second pass: each hyperedge adds its probability to the components of
	// its split. Only a hyperedge with no split onto elementary edges gets
	// new edges, the first carrying the residual mask: this is how
	// hook-error edges (flag + correlated data pair) enter the graph. One
	// whose detectors' pairs and boundary edges all exist, with masks that
	// cannot reproduce its own, has no split at all and adds nothing.
	elem := dem.NewElementary(model)
	for _, mech := range model.Mechanisms {
		if len(mech.Detectors) <= 2 {
			continue
		}
		comps, _ := elem.Decompose(mech.Detectors, mech.Obs, len(mech.Detectors))
		for _, c := range comps {
			addEdge(c.U, c.V, mech.Prob, c.Obs)
		}
	}
	// Build the adjacency in sorted edge order: map iteration order would
	// otherwise vary between decoder instances, and equal-weight shortest
	// paths would tie-break differently — so two decoders compiled from the
	// same model would disagree on tied shots.
	type keyed struct {
		k key
		e edge
	}
	sorted := make([]keyed, 0, len(edges))
	for k, e := range edges {
		sorted = append(sorted, keyed{k, e})
	}
	slices.SortFunc(sorted, func(a, b keyed) int {
		if c := cmp.Compare(a.k.u, b.k.u); c != 0 {
			return c
		}
		return cmp.Compare(a.k.v, b.k.v)
	})
	d.adj = make([][]halfEdge, n)
	for _, ke := range sorted {
		k, p := ke.k, ke.e.p
		if p <= 0 {
			continue
		}
		if p > 0.5 {
			p = 0.5 // a more-likely-than-not error saturates at weight 0
		}
		w := math.Log((1 - p) / p)
		d.adj[k.u] = append(d.adj[k.u], halfEdge{to: k.v, weight: w, obs: ke.e.obs})
		d.adj[k.v] = append(d.adj[k.v], halfEdge{to: k.u, weight: w, obs: ke.e.obs})
	}
	d.opts = opts
	d.rows = make([]atomic.Pointer[pathRow], n)
	return d, nil
}

// row returns the shortest-path row from detector src, computing it on
// first use and publishing it through an atomic pointer. Reads are
// lock-free; concurrent first uses may both run Dijkstra, but the row is a
// pure function of the immutable adjacency, so the CAS loser's result is
// identical to the winner's and results stay bit-identical at any worker
// count.
//
// A row covers every node reachable from src. Bounding the search by the
// savings rule (a pair is useful only when dist < wB_src + wB_v) would not
// stop it any earlier: the path through the boundary node puts every
// reachable v within wB_src + wB_v, so no exact prefix of the pop order
// leaves out a node.
func (d *Decoder) row(src int) *pathRow {
	if r := d.rows[src].Load(); r != nil {
		return r
	}
	dist, mask := d.dijkstra(src)
	r := &pathRow{dist: dist, mask: mask}
	if !d.rows[src].CompareAndSwap(nil, r) {
		return d.rows[src].Load()
	}
	return r
}

type pqItem struct {
	node int
	dist float64
}

// pathHeap is a binary min-heap of queue items keyed on dist. Its sift
// steps make the same comparisons and swaps as container/heap's, so items
// pop in the same order, equal-distance ties included; without the
// interface boxing, a push does not allocate.
type pathHeap []pqItem

func (h *pathHeap) push(it pqItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *pathHeap) pop() pqItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

func (d *Decoder) dijkstra(src int) ([]float64, []uint64) {
	n := d.numDet + 1
	dist := make([]float64, n)
	mask := make([]uint64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := pathHeap{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range d.adj[u] {
			nd := dist[u] + e.weight
			if nd < dist[e.to] {
				dist[e.to] = nd
				mask[e.to] = mask[u] ^ e.obs
				q.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
	return dist, mask
}

// NumDetectors returns the number of detectors the decoder expects.
func (d *Decoder) NumDetectors() int { return d.numDet }

// quantWeight converts a log-likelihood path weight to the blossom
// matcher's integer domain; -1 marks an unreachable (infinite) path.
func quantWeight(w float64) int64 {
	if math.IsInf(w, 1) {
		return -1
	}
	return int64(math.Round(w * weightScale))
}

// Decode predicts the observable flips for one shot's defect set (the list
// of flipped detector indices). It returns an error when a defect cannot be
// matched (disconnected matching graph). Hot loops should prefer
// DecodeRangeScratch, which reuses one scratch arena across shots.
func (d *Decoder) Decode(defects []int) (uint64, error) {
	obs, _, err := d.decode(defects, nil)
	return obs, err
}

// decodePath labels which decode route answered a shot, for the Stats
// breakdown.
type decodePath uint8

const (
	pathNone decodePath = iota
	pathK1
	pathK2
	pathBlossom
	pathUF
	pathUFFallback // union-find escalated to blossom
)

// decode is the one decode path: closed forms for one- and two-defect
// syndromes, then union-find (when enabled) or blossom for k>=3. s may be
// nil, in which case the k>=3 buffers are allocated per call.
func (d *Decoder) decode(defects []int, s *Scratch) (uint64, decodePath, error) {
	switch len(defects) {
	case 0:
		return 0, pathNone, nil
	case 1:
		r := d.row(defects[0])
		if quantWeight(r.dist[d.boundary]) < 0 {
			return 0, pathK1, fmt.Errorf("decoder: defects unmatchable: no path joins defect %d to the boundary", defects[0])
		}
		return r.mask[d.boundary], pathK1, nil
	case 2:
		obs, err := d.decodePair(defects)
		return obs, pathK2, err
	default:
		if d.opts.UnionFind {
			if obs, ok := d.decodeUF(defects, s); ok {
				return obs, pathUF, nil
			}
			// Escalation: the union-find decoder could not resolve the
			// cluster (odd parity trapped on a boundaryless component, or
			// an internal invariant tripped); the blossom handles it — or
			// reports the canonical unmatchable error.
			obs, err := d.decodeBlossom(defects, s)
			return obs, pathUFFallback, err
		}
	}
	obs, err := d.decodeBlossom(defects, s)
	return obs, pathBlossom, err
}

// ufGraph returns the union-find decoding graph, compiling it on first use
// from the same adjacency the matching paths use and publishing it through
// an atomic pointer (same discipline as row: the graph is a pure function
// of the immutable adjacency, so a CAS loser's result is identical).
func (d *Decoder) ufGraph() (*uf.Graph, error) {
	if g := d.ufg.Load(); g != nil {
		return g, nil
	}
	var edges []uf.Edge
	for u := range d.adj {
		for _, e := range d.adj[u] {
			if e.to > u { // adjacency stores both half-edges; take each once
				edges = append(edges, uf.Edge{U: u, V: e.to, W: quantWeight(e.weight), Obs: e.obs})
			}
		}
	}
	g, err := uf.NewGraph(d.numDet+1, d.boundary, edges)
	if err != nil {
		return nil, fmt.Errorf("decoder: compiling union-find graph: %w", err)
	}
	if !d.ufg.CompareAndSwap(nil, g) {
		return d.ufg.Load(), nil
	}
	return g, nil
}

// decodeUF attempts the union-find decode of a k>=3 defect set. ok=false
// asks the caller to escalate to the blossom.
func (d *Decoder) decodeUF(defects []int, s *Scratch) (uint64, bool) {
	g, err := d.ufGraph()
	if err != nil {
		return 0, false
	}
	var us *uf.Scratch
	if s != nil {
		if s.ufs == nil {
			s.ufs = g.NewScratch()
		}
		us = s.ufs
	} else {
		us = g.NewScratch()
	}
	obs, err := g.Decode(defects, us)
	if err != nil {
		return 0, false
	}
	return obs, true
}

// decodePair decodes a two-defect syndrome in closed form: the cheaper of
// matching the pair along their shortest path and sending both defects to
// the boundary. An exact quantized tie goes to the boundary, as in the
// savings matching, where a pair with zero savings gets no edge; the result
// is therefore bit-identical to the blossom's.
func (d *Decoder) decodePair(defects []int) (uint64, error) {
	a, b := defects[0], defects[1]
	ra, rb := d.row(a), d.row(b)
	wp := quantWeight(ra.dist[b])
	wa := quantWeight(ra.dist[d.boundary])
	wb := quantWeight(rb.dist[d.boundary])
	pairOK := wp >= 0
	bndOK := wa >= 0 && wb >= 0
	switch {
	case pairOK && (!bndOK || wp < wa+wb):
		return ra.mask[b], nil
	case bndOK:
		return ra.mask[d.boundary] ^ rb.mask[d.boundary], nil
	default:
		return 0, fmt.Errorf("decoder: defects unmatchable: no path pairs defects %d,%d or joins both to the boundary", a, b)
	}
}

// far is the boundary weight given to a defect with no path to the
// boundary: far above any sum of quantized path weights, so a maximum
// savings matching pairs every such defect whenever any valid matching
// does.
const far = int64(1) << 40

// matchDefects computes a minimum-weight matching of the defects, each
// defect either paired with another along their shortest path or sent to
// the boundary along its own, and returns mate: mate[i] is the index of
// defect i's partner, or -1 for the boundary.
//
// With bnd_i the quantized boundary weight of defect i and w_ij the
// quantized pair weight, the cost of a matching M is
// Σ bnd − Σ_{(i,j)∈M} (bnd_i + bnd_j − w_ij), so the minimum-cost matching
// is the maximum-weight (not maximum-cardinality) matching over these
// savings. Only pairs with positive savings can improve on the boundary and
// become edges, which keeps the graph to the k defects and typically far
// fewer than k²/2 edges. A defect with no boundary path gets bnd = far; if
// one stays unmatched, no valid matching exists and the defect set is
// reported unmatchable.
func (d *Decoder) matchDefects(defects []int, s *Scratch) ([]int, error) {
	k := len(defects)
	s.bnd = s.bnd[:0]
	for _, v := range defects {
		w := quantWeight(d.row(v).dist[d.boundary])
		if w < 0 {
			w = far
		}
		s.bnd = append(s.bnd, w)
	}
	edges := s.edges[:0]
	for i := 0; i < k; i++ {
		ri := d.row(defects[i])
		for j := i + 1; j < k; j++ {
			w := quantWeight(ri.dist[defects[j]])
			if w < 0 {
				continue
			}
			if save := s.bnd[i] + s.bnd[j] - w; save > 0 {
				edges = append(edges, matching.Edge{U: i, V: j, W: save})
			}
		}
	}
	s.edges = edges
	mate := s.match.MaxWeightMatching(k, edges, false)
	for i, m := range mate {
		if m < 0 && s.bnd[i] == far {
			return nil, fmt.Errorf("decoder: defects unmatchable: defect %d has no path to the boundary or to an unpaired defect", defects[i])
		}
	}
	return mate, nil
}

// decodeBlossom decodes a defect set exactly with the blossom matcher (see
// matchDefects) and XORs the observable masks along the matched paths. With
// a scratch, the edge buffer and matcher state are reused across calls, and
// a warm decode does not allocate.
func (d *Decoder) decodeBlossom(defects []int, s *Scratch) (uint64, error) {
	if s == nil {
		s = new(Scratch)
	}
	mate, err := d.matchDefects(defects, s)
	if err != nil {
		return 0, err
	}
	var obs uint64
	for i, m := range mate {
		switch {
		case m < 0: // matched to the boundary
			obs ^= d.row(defects[i]).mask[d.boundary]
		case m > i: // defect-defect pair, counted once
			obs ^= d.row(defects[i]).mask[defects[m]]
		}
	}
	return obs, nil
}

// KHistBuckets sizes the per-batch syndrome-weight histogram: exact
// buckets for k = 0, 1 and 2 (the closed-form decode paths), exponential
// buckets (2,4], (4,8], ..., (128,256] above them, and a final overflow
// bucket for k > 256. Heavy-hexagon d=7 at p=0.003 has a median of about
// 150 defects per shot, so realistic sweeps stay out of the overflow.
const KHistBuckets = 11

// KHistBounds are the inclusive upper bounds of the KHist buckets before
// the overflow: 0, 1, 2, 4, 8, ..., 256.
var KHistBounds = append([]float64{0}, obs.ExponentialBuckets(1, 2, KHistBuckets-2)...)

// KBucket returns the KHist bucket of a shot with k defects.
func KBucket(k int) int {
	if k == 0 {
		return 0
	}
	return min(1+bits.Len(uint(k-1)), KHistBuckets-1)
}

// Stats summarizes a decoded batch. Every field is a pure function of the
// decoded shots, so per-range Stats merge to the same totals at any worker
// count.
type Stats struct {
	Shots         int
	LogicalErrors int // shots where prediction != actual observable flips

	// Deprecated: the decoder no longer has a syndrome cache. CacheHits and
	// CacheMisses are always zero and are kept only for callers that still
	// read them.
	CacheHits   int
	CacheMisses int

	// Decode-path breakdown over non-empty defect sets: closed-form
	// single-defect, closed-form pair, and full blossom matchings.
	FastK1  int
	FastK2  int
	Blossom int

	// UFShots counts shots the union-find decoder answered; UFFallbacks
	// counts shots where union-find escalated to blossom (those shots are
	// also counted in Blossom). Both zero unless Options.UnionFind is set.
	UFShots     int
	UFFallbacks int

	// WindowCommits counts sliding-window commit steps performed by
	// streaming decode (zero for whole-shot decoding): a function of the
	// shot count and the window geometry.
	WindowCommits int

	// KHist is the syndrome-weight histogram: KHist[KBucket(k)] counts the
	// shots whose defect set had k flipped detectors.
	KHist [KHistBuckets]int
}

// LogicalErrorRate returns the per-shot logical error probability.
func (s Stats) LogicalErrorRate() float64 {
	if s.Shots == 0 {
		return 0
	}
	return float64(s.LogicalErrors) / float64(s.Shots)
}

// Merge returns the combined stats of s and o; per-range tallies combine in
// any grouping, which is what lets the Monte-Carlo engine shard decoding.
func (s Stats) Merge(o Stats) Stats {
	out := Stats{
		Shots:         s.Shots + o.Shots,
		LogicalErrors: s.LogicalErrors + o.LogicalErrors,
		FastK1:        s.FastK1 + o.FastK1,
		FastK2:        s.FastK2 + o.FastK2,
		Blossom:       s.Blossom + o.Blossom,
		UFShots:       s.UFShots + o.UFShots,
		UFFallbacks:   s.UFFallbacks + o.UFFallbacks,
		WindowCommits: s.WindowCommits + o.WindowCommits,
	}
	for i := range out.KHist {
		out.KHist[i] = s.KHist[i] + o.KHist[i]
	}
	return out
}

// DecodeRangeScratch decodes shots [lo, hi) of a batch serially on the
// calling goroutine and compares predictions against the actual observable
// flips. The per-shot defect list, matching edges, blossom state and
// union-find arena all live in the caller-owned scratch s, so every decode
// path runs without allocating in steady state; s must not be shared
// between concurrent calls. The decoder's
// tables are immutable (or published atomically) after construction, so
// disjoint ranges decode concurrently; callers that shard a batch merge the
// per-range Stats.
func (d *Decoder) DecodeRangeScratch(batch *frame.Batch, lo, hi int, s *Scratch) (Stats, error) {
	var stats Stats
	for shot := lo; shot < hi; shot++ {
		s.defects = batch.AppendShotDetectors(s.defects[:0], shot)
		pred, path, err := d.decode(s.defects, s)
		if err != nil {
			return stats, err
		}
		stats.KHist[KBucket(len(s.defects))]++
		switch path {
		case pathK1:
			stats.FastK1++
		case pathK2:
			stats.FastK2++
		case pathBlossom:
			stats.Blossom++
		case pathUF:
			stats.UFShots++
		case pathUFFallback:
			stats.UFFallbacks++
			stats.Blossom++
		}
		stats.Shots++
		if pred != batch.ObservableMask(shot) {
			stats.LogicalErrors++
		}
	}
	return stats, nil
}

// DecodeBatch decodes every shot of a sampled batch in parallel, one
// scratch per goroutine. The Monte-Carlo engine calls DecodeRangeScratch
// inside its own workers instead (one level of parallelism, not two);
// DecodeBatch is the convenient entry point for one-off batches.
func (d *Decoder) DecodeBatch(batch *frame.Batch) (Stats, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > batch.Shots {
		workers = batch.Shots
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		total    Stats
	)
	chunk := (batch.Shots + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > batch.Shots {
			hi = batch.Shots
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			local, err := d.DecodeRangeScratch(batch, lo, hi, d.NewScratch())
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			total = total.Merge(local)
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return Stats{Shots: batch.Shots}, firstErr
	}
	return total, nil
}
