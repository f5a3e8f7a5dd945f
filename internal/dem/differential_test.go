package dem_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/dem"
	"surfstitch/internal/tableau"
)

// randomCircuit builds a small random circuit with deterministic detectors
// and observables. The data qubits start in U|0...0> for a random Clifford
// U; every round undoes U, collects Z parities of the data onto the
// ancillas (some with CX, some with H-CZ-H), redoes U and measures the
// ancillas. A repeated readout of the last round and a data readout after a
// final undoing of U close the circuit, with one observable per ancilla.
// Noise of all four kinds is then sprinkled over the moments.
func randomCircuit(rng *rand.Rand) *circuit.Circuit {
	nData := 2 + rng.Intn(4)
	nAnc := 2 + rng.Intn(2)
	n := nData + nAnc
	b := circuit.NewBuilder(n)
	data := make([]int, nData)
	for i := range data {
		data[i] = i
	}
	ancs := make([]int, nAnc)
	for a := range ancs {
		ancs[a] = nData + a
	}

	// U and its inverse, one gate per moment; S^-1 is S three times.
	oneQubit := []circuit.Op{circuit.OpH, circuit.OpS, circuit.OpX, circuit.OpY, circuit.OpZ}
	var u, uInv []circuit.Instruction
	for len(u) < 4+rng.Intn(8) {
		q, r := rng.Intn(nData), rng.Intn(nData)
		switch k := rng.Intn(7); {
		case k < len(oneQubit):
			u = append(u, circuit.Instruction{Op: oneQubit[k], Qubits: []int{q}})
		case q != r:
			op := circuit.OpCX
			if k == 6 {
				op = circuit.OpCZ
			}
			u = append(u, circuit.Instruction{Op: op, Qubits: []int{q, r}})
		}
	}
	for i := len(u) - 1; i >= 0; i-- {
		uInv = append(uInv, u[i])
		if u[i].Op == circuit.OpS {
			uInv = append(uInv, u[i], u[i])
		}
	}
	apply := func(gates []circuit.Instruction) {
		for _, g := range gates {
			b.Begin().Gate(g.Op, g.Qubits...)
		}
	}

	// Each ancilla checks the Z parity of a fixed random multiset of data
	// qubits; viaCZ collects it as H, CZ..., H; flip applies an X after
	// every reset, which inverts each outcome the same way every round.
	support := make([][]int, nAnc)
	viaCZ := make([]bool, nAnc)
	flip := make([]bool, nAnc)
	for a := range support {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			support[a] = append(support[a], rng.Intn(nData))
		}
		viaCZ[a], flip[a] = rng.Intn(2) == 0, rng.Intn(3) == 0
	}
	b.Begin().R(data...)
	apply(u)
	var prev []int
	for r, rounds := 0, 2+rng.Intn(2); r < rounds; r++ {
		b.Begin().R(ancs...)
		b.Begin()
		for a, anc := range ancs {
			switch {
			case viaCZ[a]:
				b.H(anc)
			case flip[a]:
				b.X(anc)
			}
		}
		apply(uInv)
		for a, anc := range ancs {
			for _, q := range support[a] {
				if viaCZ[a] {
					b.Begin().Gate(circuit.OpCZ, anc, q)
				} else {
					b.Begin().CX(q, anc)
				}
			}
		}
		b.Begin()
		for a, anc := range ancs {
			if viaCZ[a] {
				b.H(anc)
			}
		}
		apply(u)
		b.Begin()
		recs := b.M(ancs...)
		for a := range ancs {
			if r == 0 {
				b.Detector(recs[a])
			} else {
				b.Detector(prev[a], recs[a])
			}
		}
		prev = recs
	}
	b.Begin()
	again := b.M(ancs...)
	// The second readout repeats the first; detector 0's extra record
	// appears twice and so cancels.
	b.Detector(prev[0], again[0], again[1], again[1])
	for a := 1; a < nAnc; a++ {
		b.Detector(prev[a], again[a])
	}
	apply(uInv)
	b.Begin()
	dataRecs := b.M(data...)
	for a := range ancs {
		obs := []int{again[a]}
		for _, q := range support[a] {
			obs = append(obs, dataRecs[q])
		}
		b.Observable(obs...)
	}
	c := b.MustBuild()

	kinds := []circuit.Op{circuit.OpXError, circuit.OpZError, circuit.OpDepolarize1, circuit.OpDepolarize2}
	for i := 0; i < 8; i++ {
		kind := kinds[i%len(kinds)]
		m := &c.Moments[rng.Intn(len(c.Moments))]
		perm := rng.Perm(n)
		qubits := perm[:1+rng.Intn(n)]
		if kind == circuit.OpDepolarize2 {
			qubits = perm[:2*(1+rng.Intn(n/2))]
		}
		p := []float64{0, 0.01, 0.05, 0.2}[rng.Intn(4)]
		m.Noise = append(m.Noise, circuit.Instruction{Op: kind, Qubits: qubits, Arg: p})
	}
	return c
}

// fault is one elementary Pauli mechanism: Paulis on up to two qubits.
type fault struct {
	prob  float64
	gates []circuit.Instruction
}

// faultsOf decomposes a noise channel into its elementary Pauli mechanisms,
// each as deterministic Pauli gates, in the documented channel order.
func faultsOf(nz circuit.Instruction) []fault {
	pauli := func(q int, x, z bool) circuit.Instruction {
		op := circuit.OpX
		switch {
		case x && z:
			op = circuit.OpY
		case z:
			op = circuit.OpZ
		}
		return circuit.Instruction{Op: op, Qubits: []int{q}}
	}
	var out []fault
	switch nz.Op {
	case circuit.OpXError, circuit.OpZError:
		for _, q := range nz.Qubits {
			out = append(out, fault{nz.Arg, []circuit.Instruction{pauli(q, nz.Op == circuit.OpXError, nz.Op == circuit.OpZError)}})
		}
	case circuit.OpDepolarize1:
		for _, q := range nz.Qubits {
			for _, xz := range [][2]bool{{true, false}, {false, true}, {true, true}} {
				out = append(out, fault{nz.Arg / 3, []circuit.Instruction{pauli(q, xz[0], xz[1])}})
			}
		}
	case circuit.OpDepolarize2:
		for i := 0; i < len(nz.Qubits); i += 2 {
			a, b := nz.Qubits[i], nz.Qubits[i+1]
			for mask := 1; mask < 16; mask++ {
				var gates []circuit.Instruction
				if mask&3 != 0 {
					gates = append(gates, pauli(a, mask&1 != 0, mask&2 != 0))
				}
				if mask&12 != 0 {
					gates = append(gates, pauli(b, mask&4 != 0, mask&8 != 0))
				}
				out = append(out, fault{nz.Arg / 15, gates})
			}
		}
	}
	return out
}

// withFault returns the noiseless circuit with the fault's Pauli gates in a
// moment of their own right after moment mi.
func withFault(c *circuit.Circuit, mi int, gates []circuit.Instruction) *circuit.Circuit {
	out := &circuit.Circuit{NumQubits: c.NumQubits, Detectors: c.Detectors, Observables: c.Observables}
	for i, m := range c.Moments {
		out.Moments = append(out.Moments, circuit.Moment{Gates: m.Gates})
		if i == mi {
			out.Moments = append(out.Moments, circuit.Moment{Gates: gates})
		}
	}
	return out
}

// oracleModel builds the expected model by exact simulation: every
// elementary fault is run alone as a deterministic gate through the
// stabilizer tableau, its flips read off against the noiseless reference,
// and the faults grouped by flip set in circuit order.
func oracleModel(t *testing.T, c *circuit.Circuit) *dem.Model {
	t.Helper()
	noiseless := withFault(c, -1, nil)
	refDet, refObs, err := tableau.Reference(noiseless, 4)
	if err != nil {
		t.Fatal(err)
	}
	model := &dem.Model{NumDetectors: len(c.Detectors), NumObservables: len(c.Observables)}
	index := map[string]int{}
	for mi, m := range c.Moments {
		for _, nz := range m.Noise {
			for _, f := range faultsOf(nz) {
				fc := withFault(c, mi, f.gates)
				res := tableau.Run(fc, rand.New(rand.NewSource(1)))
				var dets []int
				for d, v := range tableau.DetectorValues(fc, res.Records) {
					if v != refDet[d] {
						dets = append(dets, d)
					}
				}
				var obs uint64
				for o, v := range tableau.ObservableValues(fc, res.Records) {
					if v != refObs[o] {
						obs |= 1 << uint(o)
					}
				}
				if (len(dets) == 0 && obs == 0) || f.prob == 0 {
					continue
				}
				key := fmt.Sprint(dets, obs)
				if i, ok := index[key]; ok {
					p, q := model.Mechanisms[i].Prob, f.prob
					model.Mechanisms[i].Prob = p + q - 2*p*q
					continue
				}
				index[key] = len(model.Mechanisms)
				model.Mechanisms = append(model.Mechanisms, dem.Mechanism{Detectors: dets, Obs: obs, Prob: f.prob})
			}
		}
	}
	sort.Slice(model.Mechanisms, func(i, j int) bool {
		a, b := model.Mechanisms[i], model.Mechanisms[j]
		return fmt.Sprint(a.Detectors, a.Obs) < fmt.Sprint(b.Detectors, b.Obs)
	})
	return model
}

// TestFromCircuitMatchesSingleFaultOracle checks the extracted model of
// random circuits mechanism by mechanism against exact single-fault
// simulation: same signatures, same order, same probability bits.
func TestFromCircuitMatchesSingleFaultOracle(t *testing.T) {
	seen := map[circuit.Op]bool{}
	maxObs := 0
	for seed := int64(0); seed < 40; seed++ {
		c := randomCircuit(rand.New(rand.NewSource(seed)))
		for _, m := range c.Moments {
			for _, g := range append(append([]circuit.Instruction(nil), m.Gates...), m.Noise...) {
				seen[g.Op] = true
			}
		}
		if len(c.Observables) > maxObs {
			maxObs = len(c.Observables)
		}
		got, err := dem.FromCircuit(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := oracleModel(t, c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: model differs from the single-fault oracle\n got  %+v\n want %+v", seed, got, want)
		}
	}
	for op := circuit.OpR; op <= circuit.OpZError; op++ {
		if !seen[op] {
			t.Errorf("random circuits never used %v", op)
		}
	}
	if maxObs < 2 {
		t.Errorf("random circuits have at most %d observables, want several", maxObs)
	}
}
