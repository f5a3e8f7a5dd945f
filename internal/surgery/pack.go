package surgery

import (
	"context"
	"fmt"
	"sort"

	"surfstitch/internal/code"
	"surfstitch/internal/device"
	"surfstitch/internal/grid"
	"surfstitch/internal/synth"
)

// Placement is a packed multi-patch layout: one synthesis per patch plus one
// synthesis per merged (surgery) lattice, all sharing a single affine basis
// (Base, U, V) so that patch grid cell (Row, Col) anchors its lattice at
// Base + (Col·(d+1))·U + (Row·(d+1))·V.
type Placement struct {
	Dev  *device.Device
	Spec Spec // normalized

	Base, U, V grid.Coord

	// Patches holds the standalone synthesis of each patch (indexed like
	// Spec.Patches); its bridge trees avoid every other patch's data qubits
	// and every seam corridor, so the patch keeps working while neighbors
	// merge.
	Patches []*synth.Synthesis
	// Merges holds the merged-lattice synthesis of each op (indexed like
	// Spec.Ops).
	Merges []*Merge

	// Score is the summed allocation quality metric across all lattices
	// (bridge-tree size plus hook penalties); lower is better.
	Score int
}

// Merge is the synthesized merged lattice of one surgery op: the rectangular
// (2d+1)×d or d×(2d+1) rotated code spanning both patches and the seam line,
// with every merged stabilizer attributed either to one of the two patches
// (same operator, measured continuously across the merge) or to the seam
// (owner -1: the new stabilizers whose first-round outcomes carry the joint
// parity).
type Merge struct {
	Op    Op
	Code  *code.Code
	Synth *synth.Synthesis

	// Seam lists the device qubits of the seam data line (row d for ZZ,
	// column d for XX), in abstract order.
	Seam []int

	// OwnerPatch[msi] is the Spec.Patches index owning merged stabilizer
	// msi, or -1 for a new seam stabilizer; OwnerStab[msi] is the
	// stabilizer's index in the owner patch's code (-1 for seam stabilizers).
	OwnerPatch []int
	OwnerStab  []int
}

// StabType returns the stabilizer family of the joint observable: Z-type
// for ZZ, X-type for XX.
func (j Joint) StabType() code.StabType {
	if j == JointXX {
		return code.StabX
	}
	return code.StabZ
}

// Pack places a normalized layout spec on the device: every patch lattice
// and every merged seam lattice must instantiate under one shared affine
// basis, and every stabilizer of every lattice must admit a local bridge
// tree that avoids all other patches' data and all seam corridors. The
// search reuses the allocator's candidate ladder (bridge-rectangle anchors ×
// lattice bases); within an anchor the best-scoring feasible base wins, and
// the first feasible anchor wins overall, mirroring Allocate.
//
// A one-patch spec with no ops is synthesized by synth.Synthesize, the
// single-patch base case (including its graceful-degradation ladder).
func Pack(ctx context.Context, dev *device.Device, spec Spec, opts synth.Options) (*Placement, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	d := ns.Distance()
	if len(ns.Patches) == 1 && len(ns.Ops) == 0 {
		s, err := synth.Synthesize(ctx, dev, d, opts)
		if err != nil {
			return nil, err
		}
		p := MemoryPlacement(s, 0)
		p.Spec = ns
		return p, nil
	}
	if opts.Degrade {
		return nil, badSpec("graceful degradation is not supported for multi-patch layouts")
	}
	sq, err := code.NewRotated(d)
	if err != nil {
		return nil, err
	}
	mergedCodes := make([]*code.Code, len(ns.Ops))
	for i, op := range ns.Ops {
		rows, cols := 2*d+1, d
		if op.Joint == JointXX {
			rows, cols = d, 2*d+1
		}
		mc, err := code.NewRotatedRect(rows, cols)
		if err != nil {
			return nil, err
		}
		mergedCodes[i] = mc
	}

	rects := synth.BridgeRectangles(dev, opts.Mode)
	if len(rects) == 0 {
		return nil, &synth.PlacementError{
			Device: dev.Name(), Distance: d, Mode: opts.Mode,
			Reason: "no high-degree qubits to anchor bridge rectangles",
		}
	}
	anchors := len(rects)
	if limit := synth.MaxAnchorCandidates(); anchors > limit {
		anchors = limit
	}
	lattices := 0
	for i := 0; i < anchors; i++ {
		if err := ctx.Err(); err != nil {
			return nil, &synth.BudgetError{Stage: "pack", Cause: err}
		}
		best, tried := packFromAnchor(ctx, dev, ns, opts, sq, mergedCodes, rects[i])
		lattices += tried
		if best != nil {
			return best, nil
		}
	}
	return nil, &synth.PlacementError{
		Device: dev.Name(), Distance: d, Mode: opts.Mode,
		Anchors: anchors, Lattices: lattices,
		Reason: fmt.Sprintf("no feasible base packs %d patches and %d seams under any anchor",
			len(ns.Patches), len(ns.Ops)),
	}
}

// packFromAnchor evaluates every lattice candidate against one anchor
// rectangle and returns the best-scoring feasible placement, or nil. The
// second return counts lattices examined.
func packFromAnchor(ctx context.Context, dev *device.Device, spec Spec, opts synth.Options, sq *code.Code, mergedCodes []*code.Code, anchor grid.Rect) (*Placement, int) {
	const maxPeriod = 4
	var best *Placement
	cands := synth.LatticeCandidates(opts.Mode, maxPeriod)
	for _, uv := range cands {
		if ctx.Err() != nil {
			break
		}
		u, v := uv[0], uv[1]
		for _, base := range synth.BaseCandidates(dev, anchor, u, v) {
			cand := packAt(ctx, dev, spec, opts, sq, mergedCodes, base, u, v)
			if cand == nil {
				continue
			}
			if best == nil || cand.Score < best.Score {
				best = cand
			}
			break // one feasible base per lattice candidate
		}
	}
	return best, len(cands)
}

// packAt attempts the full placement at one affine basis: instantiate every
// lattice, reserve all data corridors in every layout, then synthesize each
// lattice. Any failure rejects the base.
func packAt(ctx context.Context, dev *device.Device, spec Spec, opts synth.Options, sq *code.Code, mergedCodes []*code.Code, base, u, v grid.Coord) *Placement {
	d := spec.Distance()
	span := d + 1
	cellBase := func(row, col int) grid.Coord {
		return base.Add(u.Scale(col * span)).Add(v.Scale(row * span))
	}

	patchLayouts := make([]*synth.Layout, len(spec.Patches))
	for i, ps := range spec.Patches {
		l, ok := synth.InstantiateLattice(dev, sq, opts.Mode, cellBase(ps.Row, ps.Col), u, v)
		if !ok {
			return nil
		}
		patchLayouts[i] = l
	}
	mergeLayouts := make([]*synth.Layout, len(spec.Ops))
	for i, op := range spec.Ops {
		a := spec.Patches[op.A] // normalized: A is the upper/left patch
		l, ok := synth.InstantiateLattice(dev, mergedCodes[i], opts.Mode, cellBase(a.Row, a.Col), u, v)
		if !ok {
			return nil
		}
		mergeLayouts[i] = l
	}

	// Seam-corridor reservation: every layout must treat every data qubit of
	// every other lattice (including seam lines) as data, so bridge trees
	// never route through a neighbor's patch or through a corridor that a
	// merge will consume.
	reserved := make([]bool, dev.Len())
	for _, l := range patchLayouts {
		for _, q := range l.DataQubit {
			reserved[q] = true
		}
	}
	for _, l := range mergeLayouts {
		for _, q := range l.DataQubit {
			reserved[q] = true
		}
	}
	for _, l := range patchLayouts {
		markReserved(l, reserved)
	}
	for _, l := range mergeLayouts {
		markReserved(l, reserved)
	}

	sopts := opts
	sopts.Degrade = false
	out := &Placement{
		Dev: dev, Spec: spec, Base: base, U: u, V: v,
		Patches: make([]*synth.Synthesis, len(spec.Patches)),
		Merges:  make([]*Merge, len(spec.Ops)),
	}
	for i, l := range patchLayouts {
		s, err := synth.SynthesizeOnLayoutContext(ctx, l, sopts)
		if err != nil {
			return nil
		}
		out.Patches[i] = s
		out.Score += layoutScore(s)
	}
	for i, l := range mergeLayouts {
		s, err := synth.SynthesizeOnLayoutContext(ctx, l, sopts)
		if err != nil {
			return nil
		}
		m, err := newMerge(spec, spec.Ops[i], mergedCodes[i], s, out.Patches)
		if err != nil {
			return nil
		}
		out.Merges[i] = m
		out.Score += layoutScore(s)
	}
	return out
}

// markReserved flags every globally reserved data qubit as data in the
// layout, blocking it from bridge-tree interiors.
func markReserved(l *synth.Layout, reserved []bool) {
	for q, r := range reserved {
		if r {
			l.IsData[q] = true
		}
	}
}

// layoutScore applies the allocator's quality metric to one synthesis.
func layoutScore(s *synth.Synthesis) int {
	score := 0
	for _, t := range s.Trees {
		if t != nil {
			score += t.EdgeLen()
		}
	}
	return score + synth.HookPenaltyWeight*synth.VerticalXHookPairs(s.Layout, s.Trees)
}

// newMerge attributes every merged stabilizer to a patch or to the seam and
// records the seam data line. A merged stabilizer is owned by a patch when
// the patch's code has a stabilizer of the same type at the same (offset)
// corner with the exact same device support — the boundary half-plaquettes
// facing the seam fail the support check (they grow into bulk plaquettes)
// and correctly read as new seam stabilizers.
func newMerge(spec Spec, op Op, mc *code.Code, s *synth.Synthesis, patches []*synth.Synthesis) (*Merge, error) {
	d := spec.Distance()
	offB := [2]int{d + 1, 0}
	if op.Joint == JointXX {
		offB = [2]int{0, d + 1}
	}
	type cornerKey struct {
		t    code.StabType
		r, c int
	}
	type ownerRef struct{ patch, si int }
	index := map[cornerKey]ownerRef{}
	addPatch := func(pi int, off [2]int) {
		for si, st := range patches[pi].Layout.Code.Stabilizers() {
			index[cornerKey{st.Type, st.Corner[0] + off[0], st.Corner[1] + off[1]}] = ownerRef{pi, si}
		}
	}
	addPatch(op.A, [2]int{0, 0})
	addPatch(op.B, offB)

	stabs := mc.Stabilizers()
	m := &Merge{
		Op: op, Code: mc, Synth: s,
		OwnerPatch: make([]int, len(stabs)),
		OwnerStab:  make([]int, len(stabs)),
	}
	owned := map[ownerRef]bool{}
	for msi, st := range stabs {
		m.OwnerPatch[msi], m.OwnerStab[msi] = -1, -1
		o, ok := index[cornerKey{st.Type, st.Corner[0], st.Corner[1]}]
		if !ok {
			continue
		}
		if !sameSupport(s.Layout, st, patches[o.patch].Layout, patches[o.patch].Layout.Code.Stabilizers()[o.si]) {
			continue
		}
		m.OwnerPatch[msi], m.OwnerStab[msi] = o.patch, o.si
		owned[o] = true
	}

	// Every joint-type patch stabilizer must survive the merge unchanged:
	// the experiment chains its syndrome records straight through the merged
	// rounds. (Only opposite-type halves at the seam boundary are replaced.)
	jt := op.Joint.StabType()
	for _, pi := range []int{op.A, op.B} {
		for si, st := range patches[pi].Layout.Code.Stabilizers() {
			if st.Type == jt && !owned[ownerRef{pi, si}] {
				return nil, fmt.Errorf("surgery: %v stabilizer %v of patch %q not preserved by the merged lattice",
					jt, st, spec.Patches[pi].Name)
			}
		}
	}

	for idx, q := range s.Layout.DataQubit {
		r, c := mc.DataPos(idx)
		if (op.Joint == JointZZ && r == d) || (op.Joint == JointXX && c == d) {
			m.Seam = append(m.Seam, q)
		}
	}
	if len(m.Seam) != d {
		return nil, fmt.Errorf("surgery: seam has %d qubits, want %d", len(m.Seam), d)
	}
	return m, nil
}

// sameSupport reports whether a merged stabilizer and a patch stabilizer act
// on the exact same device qubits.
func sameSupport(ml *synth.Layout, ms code.Stabilizer, pl *synth.Layout, ps code.Stabilizer) bool {
	if len(ms.Data) != len(ps.Data) {
		return false
	}
	set := make(map[int]bool, len(ms.Data))
	for _, dq := range ms.Data {
		set[ml.DataQubit[dq]] = true
	}
	for _, dq := range ps.Data {
		if !set[pl.DataQubit[dq]] {
			return false
		}
	}
	return true
}

// AllQubits returns every device qubit the placement uses (data and bridge,
// across patches and merges), sorted ascending.
func (p *Placement) AllQubits() []int {
	seen := map[int]bool{}
	add := func(s *synth.Synthesis) {
		for _, q := range s.AllQubits() {
			seen[q] = true
		}
	}
	for _, s := range p.Patches {
		add(s)
	}
	for _, m := range p.Merges {
		add(m.Synth)
	}
	out := make([]int, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// OpOf returns the index of the op patch pi participates in, or -1.
func (p *Placement) OpOf(pi int) int {
	for oi, op := range p.Spec.Ops {
		if op.A == pi || op.B == pi {
			return oi
		}
	}
	return -1
}
