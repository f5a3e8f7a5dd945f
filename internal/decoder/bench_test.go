package decoder

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/frame"
	"surfstitch/internal/noise"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// benchBatch builds a d-round distance-d repetition memory at physical error
// rate p and samples a shot batch from it with a fixed seed, so every
// benchmark run decodes the identical syndrome stream.
func benchBatch(b *testing.B, d int, p float64, shots int) (*dem.Model, *frame.Batch) {
	b.Helper()
	c := noise.Uniform(p).MustApply(repetitionMemory(d, d))
	model, err := dem.FromCircuit(c)
	if err != nil {
		b.Fatal(err)
	}
	s, err := frame.NewSampler(c, rand.New(rand.NewSource(int64(1000+d))))
	if err != nil {
		b.Fatal(err)
	}
	return model, s.Sample(shots)
}

// squareBatch samples a fixed-seed shot batch from a d-round distance-d
// square-tiling surface code memory at uniform physical error rate p, and
// returns the memory's detector→round map for streaming decode.
func squareBatch(b *testing.B, d int, p float64, shots int) (*dem.Model, []int, *frame.Batch) {
	b.Helper()
	model, noisy, mem := synthesizedNoisyMemory(b, device.KindSquare, d, p)
	s, err := frame.NewSampler(noisy, rand.New(rand.NewSource(int64(1000+d))))
	if err != nil {
		b.Fatal(err)
	}
	return model, mem.DetectorRound, s.Sample(shots)
}

// mergedBatch packs a 2-patch vertical ZZ merge at distance d on a square
// tiling, builds the merge→measure→split circuit, applies uniform noise at
// rate p and samples a fixed-seed shot batch from it: the multi-observable
// merged detector graph the surgery layer decodes.
func mergedBatch(b *testing.B, d int, p float64, shots int) (*dem.Model, *frame.Batch) {
	b.Helper()
	spec := surgery.Spec{
		Patches: []surgery.PatchSpec{{Name: "a", Distance: d}, {Name: "b", Row: 1, Distance: d}},
		Ops:     []surgery.Op{{A: 0, B: 1, Joint: surgery.JointZZ}},
	}
	pl, err := surgery.Pack(context.Background(), device.Square(4*d, 5*d-1), spec, synth.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := surgery.NewExperiment(pl, surgery.Options{SkipVerify: true})
	if err != nil {
		b.Fatal(err)
	}
	c, err := e.Noisy(noise.Uniform(p))
	if err != nil {
		b.Fatal(err)
	}
	model, err := dem.FromCircuit(c)
	if err != nil {
		b.Fatal(err)
	}
	s, err := frame.NewSampler(c, rand.New(rand.NewSource(int64(2000+d))))
	if err != nil {
		b.Fatal(err)
	}
	return model, s.Sample(shots)
}

// keepDense repacks the shots whose syndromes carry at least minK defects
// into a new batch: the workload that skips the k<=2 closed forms and
// compares the k>=3 algorithms directly.
func keepDense(src *frame.Batch, minK int) *frame.Batch {
	var kept []int
	var buf []int
	for shot := 0; shot < src.Shots; shot++ {
		if buf = src.AppendShotDetectors(buf[:0], shot); len(buf) >= minK {
			kept = append(kept, shot)
		}
	}
	out := &frame.Batch{Shots: len(kept), Words: (len(kept) + 63) / 64}
	repack := func(planes [][]uint64) [][]uint64 {
		dst := make([][]uint64, len(planes))
		for i, plane := range planes {
			row := make([]uint64, out.Words)
			for j, shot := range kept {
				if plane[shot/64]&(1<<uint(shot%64)) != 0 {
					row[j/64] |= 1 << uint(j%64)
				}
			}
			dst[i] = row
		}
		return dst
	}
	out.DetFlips = repack(src.DetFlips)
	out.ObsFlips = repack(src.ObsFlips)
	out.RecordFlips = repack(src.RecordFlips)
	return out
}

// benchRange times DecodeRangeScratch over the whole batch with a persistent
// scratch arena. The lazy rows, the union-find graph and the scratch are
// warmed outside the timer, matching steady-state Monte-Carlo operation.
func benchRange(b *testing.B, model *dem.Model, batch *frame.Batch, opts Options) {
	dec, err := NewWithOptions(model, opts)
	if err != nil {
		b.Fatal(err)
	}
	s := dec.NewScratch()
	if _, err := dec.DecodeRangeScratch(batch, 0, batch.Shots, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeRangeScratch(batch, 0, batch.Shots, s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Shots), "ns/shot")
}

// kGe3Decoders are the two k>=3 algorithms the comparison benchmarks run on
// the identical batch.
var kGe3Decoders = []struct {
	name string
	opts Options
}{
	{"uf", Options{UnionFind: true}},
	{"blossom", Options{}},
}

// BenchmarkDecodeBatch measures the decode path end to end on a low-p
// repetition memory: serial range decoding with a persistent scratch arena,
// amortized per shot.
func BenchmarkDecodeBatch(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			model, batch := benchBatch(b, d, 0.002, 2048)
			benchRange(b, model, batch, Options{})
		})
	}
}

// BenchmarkDecodeK3 compares union-find against blossom on forced-k>=3
// square-tiling memories at d=3/5/7: only the shots of a p=0.02 batch that
// carry at least three defects.
func BenchmarkDecodeK3(b *testing.B) {
	for _, d := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			model, _, raw := squareBatch(b, d, 0.02, 1024)
			batch := keepDense(raw, 3)
			if batch.Shots == 0 {
				b.Fatalf("d=%d: no k>=3 shots at p=0.02", d)
			}
			for _, dc := range kGe3Decoders {
				b.Run(dc.name, func(b *testing.B) { benchRange(b, model, batch, dc.opts) })
			}
		})
	}
}

// BenchmarkDecodeMerged compares union-find against blossom on the merged
// detector graph of a 2-patch d=5 ZZ lattice-surgery circuit at p=0.002.
func BenchmarkDecodeMerged(b *testing.B) {
	model, batch := mergedBatch(b, 5, 0.002, 4096)
	for _, dc := range kGe3Decoders {
		b.Run(dc.name, func(b *testing.B) { benchRange(b, model, batch, dc.opts) })
	}
}

// BenchmarkStream measures the sliding-window streaming decode (window 3,
// commit 1, union-find) on a d=5 square-tiling memory at p=0.002: per shot
// a Reset, one PushRound per syndrome round and a Finish.
func BenchmarkStream(b *testing.B) {
	model, detRound, batch := squareBatch(b, 5, 0.002, 4096)
	dec, err := NewWithOptions(model, Options{UnionFind: true})
	if err != nil {
		b.Fatal(err)
	}
	st, err := dec.NewStream(detRound, StreamConfig{Window: 3, Commit: 1})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int, 0, 64)
	runBatch := func() {
		for shot := 0; shot < batch.Shots; shot++ {
			st.Reset()
			for r := 0; r < st.NumRounds(); r++ {
				lo, hi := st.RoundRange(r)
				buf = batch.AppendShotDetectorsRange(buf[:0], shot, lo, hi)
				if err := st.PushRound(buf); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := st.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	}
	runBatch() // warm the union-find scratch
	st.TakeStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch()
	}
	b.StopTimer()
	shots := float64(b.N * batch.Shots)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/shots, "ns/shot")
	b.ReportMetric(float64(st.TakeStats().WindowCommits)/shots, "commits/shot")
}
