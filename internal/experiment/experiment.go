// Package experiment assembles logical-memory experiments from synthesized
// surface codes: `rounds` rounds of the scheduled stabilizer measurements
// followed by a transversal data readout, with detector and observable
// annotations ready for the sampling/decoding pipeline. This mirrors the
// paper's evaluation protocol (§5.1): 3d error-detection rounds, error rates
// measured with respect to Pauli X errors, decoding with measurement signals
// from bridge qubits (flags).
//
// A memory is the one-patch, zero-op lattice-surgery experiment: the
// circuit comes from surgery.NewExperiment, the repository's one
// stabilizer-round assembler.
package experiment

import (
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// Basis selects which logical state the memory protects.
type Basis = surgery.Basis

// The two memory bases.
const (
	BasisZ = surgery.BasisZ
	BasisX = surgery.BasisX
)

// Options configures memory-experiment assembly: the protected basis and
// whether to skip the tableau determinism check.
type Options = surgery.Options

// Memory is an assembled logical-memory experiment. Its DetectorRound
// records the round of each detector (the final data-readout detectors
// carry round == Rounds), and it serves as a threshold.CircuitProvider.
type Memory = surgery.Experiment

// NewMemory builds a memory experiment with the given number of rounds.
// Unless disabled, the construction is verified with the tableau simulator:
// every detector must be deterministic, which catches scheduling or circuit
// generation bugs at assembly time.
func NewMemory(s *synth.Synthesis, rounds int, opts Options) (*Memory, error) {
	return surgery.NewExperiment(surgery.MemoryPlacement(s, rounds), opts)
}
