// Package dem extracts a detector error model from a noisy Clifford circuit,
// playing the role of stim's analyze_errors pass in the paper's toolchain.
//
// Every noise channel in the circuit is decomposed into its elementary Pauli
// mechanisms (e.g. a two-qubit depolarizing channel contributes 15 equally
// likely mechanisms). One reverse-time sensitivity pass finds what each
// mechanism flips: walking the moments backwards, it keeps for every qubit
// the set of detectors and observables that an X, and a Z, on that qubit at
// the current point would flip. A mechanism's signature is the XOR of the
// sets of its Pauli components. Mechanisms with identical signatures are
// merged by XOR-combining their probabilities, yielding the weighted error
// model the decoders are built from.
//
// The model's mechanisms are ordered by the strings fmt.Sprint(Detectors,
// Obs), the order of the original lane-parallel extractor. The order is kept
// deliberately: decoders break ties by mechanism index, so it makes every
// seeded decoding result bit-identical to that extractor's.
package dem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"surfstitch/internal/circuit"
)

// Mechanism is a group of physical errors with identical consequences: the
// set of detectors it flips, the logical observables it flips, and the
// probability that an odd number of its members occur.
type Mechanism struct {
	Detectors []int  // sorted detector indices
	Obs       uint64 // observable bitmask
	Prob      float64
}

// Model is the extracted detector error model.
type Model struct {
	NumDetectors   int
	NumObservables int
	Mechanisms     []Mechanism
}

// FromCircuit enumerates the circuit's noise mechanisms and groups them by
// signature. Mechanisms that flip nothing are dropped.
func FromCircuit(c *circuit.Circuit) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("dem: %w", err)
	}
	if len(c.Observables) > 64 {
		return nil, fmt.Errorf("dem: at most 64 observables supported, got %d", len(c.Observables))
	}
	model := &Model{NumDetectors: len(c.Detectors), NumObservables: len(c.Observables)}

	// Lanes number the elementary mechanisms in circuit order; the moment
	// mi's mechanisms are lanes laneStart[mi] onwards.
	laneStart := make([]int, len(c.Moments)+1)
	for mi, m := range c.Moments {
		n := 0
		for _, nz := range m.Noise {
			k, err := lanesOf(nz)
			if err != nil {
				return nil, err
			}
			n += k
		}
		laneStart[mi+1] = laneStart[mi] + n
	}
	lanes := laneStart[len(c.Moments)]
	if lanes == 0 {
		return model, nil
	}

	t := newTracker(c, lanes)
	for mi := len(c.Moments) - 1; mi >= 0; mi-- {
		m := c.Moments[mi]
		// A moment's noise acts after its gates, so it sees the rows as
		// they stand before the gates are undone.
		lane := laneStart[mi]
		for _, nz := range m.Noise {
			lane = t.evalNoise(nz, lane)
		}
		for gi := len(m.Gates) - 1; gi >= 0; gi-- {
			if err := t.undoGate(m.Gates[gi]); err != nil {
				return nil, err
			}
		}
	}

	// Group by signature in lane order, XOR-combining probabilities: the
	// merged mechanism fires when an odd number of its members fire.
	mechOf := make([]int32, len(t.sigs))
	for i := range mechOf {
		mechOf[i] = -1
	}
	for lane, id := range t.laneSig {
		q := t.laneProb[lane]
		if id < 0 || q == 0 {
			continue // harmless or impossible error
		}
		if i := mechOf[id]; i >= 0 {
			p := model.Mechanisms[i].Prob
			model.Mechanisms[i].Prob = p + q - 2*p*q
			continue
		}
		mechOf[id] = int32(len(model.Mechanisms))
		s := t.sigs[id]
		model.Mechanisms = append(model.Mechanisms, Mechanism{Detectors: s.dets, Obs: s.obs, Prob: q})
	}
	keys := make([]string, len(model.Mechanisms))
	for i, mech := range model.Mechanisms {
		keys[i] = orderKey(mech.Detectors, mech.Obs)
	}
	sort.Sort(byKey{model.Mechanisms, keys})
	return model, nil
}

// lanesOf returns the number of elementary mechanisms of a noise channel.
func lanesOf(nz circuit.Instruction) (int, error) {
	switch nz.Op {
	case circuit.OpXError, circuit.OpZError:
		return len(nz.Qubits), nil
	case circuit.OpDepolarize1:
		return 3 * len(nz.Qubits), nil
	case circuit.OpDepolarize2:
		return 15 * (len(nz.Qubits) / 2), nil
	default:
		return 0, fmt.Errorf("dem: unsupported noise op %v", nz.Op)
	}
}

// signature is one distinct non-empty set of flipped detectors and
// observables.
type signature struct {
	dets []int
	obs  uint64
}

// tracker holds the sensitivity rows of the reverse pass. Bit b of a row is
// detector b for b < numDet and observable b-numDet above; sx[q] (sz[q]) is
// the set an X (Z) on qubit q at the current point would flip.
type tracker struct {
	numDet int
	sx, sz [][]uint64
	// recBits lists the detector and observable bits each measurement
	// record feeds; rec counts the records not yet undone.
	recBits [][]int
	rec     int

	scratch []uint64
	key     []byte
	index   map[string]int32
	sigs    []signature

	// laneSig is each lane's signature (-1 when it flips nothing) and
	// laneProb its probability.
	laneSig  []int32
	laneProb []float64
}

func newTracker(c *circuit.Circuit, lanes int) *tracker {
	numDet := len(c.Detectors)
	width := (numDet + len(c.Observables) + 63) / 64
	backing := make([]uint64, (2*c.NumQubits+1)*width)
	row := func() []uint64 {
		r := backing[:width:width]
		backing = backing[width:]
		return r
	}
	t := &tracker{
		numDet:   numDet,
		sx:       make([][]uint64, c.NumQubits),
		sz:       make([][]uint64, c.NumQubits),
		recBits:  make([][]int, c.NumMeasurements()),
		index:    map[string]int32{},
		laneSig:  make([]int32, lanes),
		laneProb: make([]float64, lanes),
	}
	t.rec = len(t.recBits)
	for q := range t.sx {
		t.sx[q], t.sz[q] = row(), row()
	}
	t.scratch = row()
	for d, set := range c.Detectors {
		for _, r := range set {
			t.recBits[r] = append(t.recBits[r], d)
		}
	}
	for o, set := range c.Observables {
		for _, r := range set {
			t.recBits[r] = append(t.recBits[r], numDet+o)
		}
	}
	return t
}

// undoGate moves the rows from just after g to just before it.
func (t *tracker) undoGate(g circuit.Instruction) error {
	sx, sz := t.sx, t.sz
	switch g.Op {
	case circuit.OpH:
		for _, q := range g.Qubits {
			sx[q], sz[q] = sz[q], sx[q]
		}
	case circuit.OpS:
		for _, q := range g.Qubits {
			xorInto(sx[q], sz[q])
		}
	case circuit.OpCX:
		for i := 0; i < len(g.Qubits); i += 2 {
			c, tg := g.Qubits[i], g.Qubits[i+1]
			xorInto(sx[c], sx[tg])
			xorInto(sz[tg], sz[c])
		}
	case circuit.OpCZ:
		for i := 0; i < len(g.Qubits); i += 2 {
			a, b := g.Qubits[i], g.Qubits[i+1]
			xorInto(sx[a], sz[b])
			xorInto(sx[b], sz[a])
		}
	case circuit.OpX, circuit.OpY, circuit.OpZ:
		// Deterministic Paulis are part of the reference; frames commute
		// through them up to irrelevant signs.
	case circuit.OpR:
		for _, q := range g.Qubits {
			clear(sx[q])
			clear(sz[q])
		}
	case circuit.OpM:
		// An X before the measurement flips its record and survives it; a
		// Z before it has no observable effect. Records are undone last
		// first.
		for i := len(g.Qubits) - 1; i >= 0; i-- {
			q := g.Qubits[i]
			t.rec--
			clear(sz[q])
			for _, b := range t.recBits[t.rec] {
				sx[q][b/64] ^= 1 << uint(b%64)
			}
		}
	default:
		return fmt.Errorf("dem: unsupported gate op %v", g.Op)
	}
	return nil
}

// evalNoise records the signature and probability of each elementary
// mechanism of the channel, numbering them from lane, and returns the next
// free lane.
func (t *tracker) evalNoise(nz circuit.Instruction, lane int) int {
	emit := func(p float64, row []uint64) {
		t.laneSig[lane] = t.intern(row)
		t.laneProb[lane] = p
		lane++
	}
	switch nz.Op {
	case circuit.OpXError:
		for _, q := range nz.Qubits {
			emit(nz.Arg, t.sx[q])
		}
	case circuit.OpZError:
		for _, q := range nz.Qubits {
			emit(nz.Arg, t.sz[q])
		}
	case circuit.OpDepolarize1:
		p := nz.Arg / 3
		for _, q := range nz.Qubits {
			emit(p, t.sx[q])
			emit(p, t.sz[q])
			copy(t.scratch, t.sx[q])
			xorInto(t.scratch, t.sz[q])
			emit(p, t.scratch)
		}
	case circuit.OpDepolarize2:
		p := nz.Arg / 15
		for i := 0; i < len(nz.Qubits); i += 2 {
			a, b := nz.Qubits[i], nz.Qubits[i+1]
			// Mask bits 1, 2, 4, 8 select the X and Z components on a
			// and on b.
			parts := [4][]uint64{t.sx[a], t.sz[a], t.sx[b], t.sz[b]}
			for mask := 1; mask < 16; mask++ {
				clear(t.scratch)
				for k, part := range parts {
					if mask&(1<<k) != 0 {
						xorInto(t.scratch, part)
					}
				}
				emit(p, t.scratch)
			}
		}
	}
	return lane
}

// intern returns the id of the row's signature, or -1 for the empty one.
// Signatures are keyed by the positions of their set bits.
func (t *tracker) intern(row []uint64) int32 {
	t.key = t.key[:0]
	for w, word := range row {
		for word != 0 {
			t.key = binary.LittleEndian.AppendUint32(t.key, uint32(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	if len(t.key) == 0 {
		return -1
	}
	if id, ok := t.index[string(t.key)]; ok {
		return id
	}
	var s signature
	for i := 0; i < len(t.key); i += 4 {
		b := int(binary.LittleEndian.Uint32(t.key[i:]))
		if b < t.numDet {
			s.dets = append(s.dets, b)
		} else {
			s.obs |= 1 << uint(b-t.numDet)
		}
	}
	id := int32(len(t.sigs))
	t.sigs = append(t.sigs, s)
	t.index[string(t.key)] = id
	return id
}

// orderKey is fmt.Sprint(dets, obs), built without reflection: the sort key
// of a model's mechanisms.
func orderKey(dets []int, obs uint64) string {
	b := make([]byte, 0, 8*len(dets)+24)
	b = append(b, '[')
	for i, d := range dets {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	b = append(b, "] "...)
	return string(strconv.AppendUint(b, obs, 10))
}

// byKey sorts mechanisms by their precomputed order keys.
type byKey struct {
	mechs []Mechanism
	keys  []string
}

func (s byKey) Len() int           { return len(s.mechs) }
func (s byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKey) Swap(i, j int) {
	s.mechs[i], s.mechs[j] = s.mechs[j], s.mechs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func xorInto(dst, src []uint64) {
	for w := range dst {
		dst[w] ^= src[w]
	}
}

// MaxDegree returns the largest number of detectors any mechanism flips —
// a diagnostic for how much hyperedge decomposition the decoder must do.
func (m *Model) MaxDegree() int {
	maxDeg := 0
	for _, mech := range m.Mechanisms {
		if len(mech.Detectors) > maxDeg {
			maxDeg = len(mech.Detectors)
		}
	}
	return maxDeg
}

// TotalErrorProbability returns the probability that at least one mechanism
// fires (assuming independence) — an upper-bound sanity statistic.
func (m *Model) TotalErrorProbability() float64 {
	pNone := 1.0
	for _, mech := range m.Mechanisms {
		pNone *= 1 - mech.Prob
	}
	return 1 - pNone
}
