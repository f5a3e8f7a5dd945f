package decoder

import (
	"surfstitch/internal/matching"
	"surfstitch/internal/uf"
)

// Scratch is a per-goroutine arena for the decode hot loop: the defect
// list, the per-defect boundary weights and savings edges of the blossom
// graph, the blossom matcher's internal state and (when union-find is
// enabled) the uf arena, all reused across shots so that steady-state
// decoding does not allocate on any path. Callers that decode many
// ranges (the Monte-Carlo chunk loop) should hold one per worker and pass
// it to DecodeRangeScratch. A Scratch must never be shared between
// concurrent calls.
type Scratch struct {
	defects []int
	bnd     []int64         // per-defect quantized boundary weight
	edges   []matching.Edge // positive-savings defect pairs
	match   matching.Scratch
	ufs     *uf.Scratch // lazily sized to the uf graph on first k>=3 decode
}

// NewScratch returns a scratch arena pre-sized for the sparse syndromes
// that dominate sub-threshold decoding.
func (d *Decoder) NewScratch() *Scratch {
	return &Scratch{
		defects: make([]int, 0, 16),
		edges:   make([]matching.Edge, 0, 64),
	}
}
