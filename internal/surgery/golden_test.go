package surgery_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"surfstitch/internal/circuit"
	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/experiment"
	"surfstitch/internal/noise"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

// goldenAssembly pins every circuit shape the assembler serves: one-patch
// memories (each tiling at d=3/5, both bases, one round and 3d rounds),
// memories over degraded syntheses with dropped stabilizers, and the 2-patch
// d=3 surgery layouts. Each digest covers the circuit text, the detector
// round map and the uniform-noise detector error model.
var goldenAssembly = map[string]string{
	"square/d3/Z/r1":                "9a60fc9c455362912e35991c04567201502b860e515fa4493af16a8bca5de64a",
	"square/d3/Z/r9":                "48e2cb27c5f6bc690cc4f3479da451dbd87eb9558cca77549eb1e47b554fedb3",
	"square/d3/X/r1":                "170e9a4eb44072c044b4d457e662872c400c8605f0ad663ad068612179011db7",
	"square/d3/X/r9":                "41b3435ce2321ba715f154c63af63f7463f3df3e9a8dff5bb044a3132e4c46d2",
	"square/d5/Z/r1":                "7ecdd873f32442e9c26f5cdaa7c9d5d367786babfb78dee4df1a8c07631e7f95",
	"square/d5/Z/r15":               "e0564dd2080027006e285f92c47b5299f6af0bfd3272172fc484ee60c3032bc2",
	"square/d5/X/r1":                "147e2b812a6f0c88c53c16b7a7b75851dc2d4210fc843fdbcef28470644bede8",
	"square/d5/X/r15":               "0a749a4b7e07d766809d723c8bdbb36e93f84de3bdf393f866a96820e9a783ca",
	"hexagon/d3/Z/r1":               "fd2eb10c2621ae2da386dd43f4880ab2ad280e7615caa1f0b9c8b84ea1591065",
	"hexagon/d3/Z/r9":               "d88706b495efe11502a663f28540d939bd0840d210bf83c02c52458ab85f9b86",
	"hexagon/d3/X/r1":               "6100f9ba6d3bca1bf9087716999ef9ec5d7716991e91bb56c7430a241f148310",
	"hexagon/d3/X/r9":               "4c3f7bda57caa7e57a703010da39b2ac3e8b3628ed965a48ff271eea15261d4b",
	"hexagon/d5/Z/r1":               "b309fa8279c9076fd0218973e7860b47ada60e878ab9e94f247ca378543a4cfe",
	"hexagon/d5/Z/r15":              "b9e926ebe4bfa5aea6e5fdcfd31bebf715736de38a4069028d5f8377c704cbf0",
	"hexagon/d5/X/r1":               "cc2dfd34f503fbef9081e449be0caadd37d81a25b4055ca8de8611d828bcb552",
	"hexagon/d5/X/r15":              "607dda8e5d917f1a6bfdd71c53a01b9c571fb929a2de7a40d3830a19ca060d3e",
	"octagon/d3/Z/r1":               "3931336558734357f0dde7ab386dca3b0f6247b8c3a6e38dd8a63b322046dc7c",
	"octagon/d3/Z/r9":               "53639cb98c525dcfcfdf9e0d3f200aabe82f88f1db7bd3e554bcef86de7423b1",
	"octagon/d3/X/r1":               "1265aefdb0c97e4fa66fb5775821b943cd78df68a1902c5c1adbe4fd9ab7d3a0",
	"octagon/d3/X/r9":               "f913c6af45fe42918c1151d56d2da0d6c22d4a74d8b9184482a29803822e4f77",
	"octagon/d5/Z/r1":               "1de2f789a0f069a00a76331ca260ab73dd22c1b72c863b29b0e8a5e6044a3389",
	"octagon/d5/Z/r15":              "8eff4e98b9e56ba2dfa12823cea4a39e2b89df4afbbac48238d46d7641a350b1",
	"octagon/d5/X/r1":               "5e512dc414e2d321dc88524423acef654b4ea9794cfb58ecc0e9b1ff85253409",
	"octagon/d5/X/r15":              "1b6df13435f623d41c466b8ac5f301796360db26f8e60f1e54de1b0de2019d13",
	"heavy-square/d3/Z/r1":          "86fc4aa61bb96aed12c0bb7f22f790c15d8db5269c7c3014f78f57e5f3d0b000",
	"heavy-square/d3/Z/r9":          "a0da2fc0c8c15b6981e1f12e82192f043e95bec6e62dd7ebc5e99d990ac3a379",
	"heavy-square/d3/X/r1":          "cedae2de3a2d6c61eb9d4f22927c57e7a590feb268fbdc9dcc7255e22f42d0f4",
	"heavy-square/d3/X/r9":          "ba694048a36f1d11b5c53c1851c805a086044b2fc17d786412e6671f59be2a7f",
	"heavy-square/d5/Z/r1":          "8bb851ba2030866fd0356efd43ba33a1b9823a3b2fb69b257a406cdb2bfcbfcf",
	"heavy-square/d5/Z/r15":         "e6b36930455d51414f15abbdeac6374466c68b96c3821c359ea595e69b9498b6",
	"heavy-square/d5/X/r1":          "7adcf41121159bf27be9804e729b12d726eb03a61417e7b7b797caa1c15a06e3",
	"heavy-square/d5/X/r15":         "1b7c87ca41ac05b05e0e14b258ca73ac3bfbae97fb4b3be266fe40726d50b818",
	"heavy-hexagon/d3/Z/r1":         "9f037009fda42c5bdd4102bd3954a5a83a3279a35f2012031084fe3d9a6d5737",
	"heavy-hexagon/d3/Z/r9":         "db1447bdf07dfe0e31596d80b6d56a5cac03127c53e7f2e06245b4a1e7710bd5",
	"heavy-hexagon/d3/X/r1":         "8aca62b369612a5d6f3725885db21418371e80ed55180bee019ed1d9a046629e",
	"heavy-hexagon/d3/X/r9":         "7229d6c99e7c70d149f32f3ef7ee96f096f304c78dacb94b3e6141f54bf6b32e",
	"heavy-hexagon/d5/Z/r1":         "8b3a737e224498de0233b4b54b97d7ebe28809d64c80029530975892362e0945",
	"heavy-hexagon/d5/Z/r15":        "410e60ac6ab558e0a4277dc581d4d0b027be38fcd986677f8aa704acf1766a98",
	"heavy-hexagon/d5/X/r1":         "0e64576320f9c8661905447401248bfc8b59ee466ed32eaac7945f9269233c4f",
	"heavy-hexagon/d5/X/r15":        "8c508a1bdbbd1a2a4998fd0f6d6e6efba0ce316db34cfa1e043d4f02c501ff6b",
	"degraded/heavy-hexagon/0.08/2": "6dd89261f28555f7dd1b647d09f47e24ea95f7c6702f5b130d5b27e9d9ae5b3c",
	"degraded/heavy-hexagon/0.12/2": "fe31fd2eaa2110c8c4078ae7f86be46b293bd7e548122cceed3593db74419912",
	"degraded/hexagon/0.16/7":       "e484cade44fd31aeaa7888bbb6c06c07ca3b2667371d22ae3462dc1419a491b9",
	"layout/heavy-square/ZZ":        "73d946268c757fee2e067551e963399f6727f156535e94d21d6f5b0cc6df7283",
	"layout/heavy-square/XX":        "76806029e8a5367f30bcd5104b1fb8030a0249b8fc2139fac46de1a9e9fab49d",
	"layout/square/ZZ":              "67139b1a3ac3701c7bab2bcc43e452eb21d5125c4792e4c4de0d504f2e70809c",
	"layout/square/XX":              "707e0d0e51eece79e131428c22dcf2c56e36c4c624fd683ce9ac6d061046106e",
}

// assemblyDigest hashes what a downstream stage can observe of an assembled
// experiment: the exact circuit, the round of every detector, and the
// detector error model at p=0.003 (mechanism order and probability bits
// included).
func assemblyDigest(t *testing.T, c *circuit.Circuit, rounds []int, noisy func(noise.Model) (*circuit.Circuit, error)) string {
	t.Helper()
	nc, err := noisy(noise.Uniform(0.003))
	if err != nil {
		t.Fatal(err)
	}
	m, err := dem.FromCircuit(nc)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(circuit.Format(c)))
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(rounds)))
	for _, r := range rounds {
		put(uint64(r))
	}
	put(uint64(m.NumDetectors))
	put(uint64(m.NumObservables))
	put(uint64(len(m.Mechanisms)))
	for _, mech := range m.Mechanisms {
		put(uint64(len(mech.Detectors)))
		for _, d := range mech.Detectors {
			put(uint64(d))
		}
		put(mech.Obs)
		put(math.Float64bits(mech.Prob))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkAssembly(t *testing.T, name, got string) {
	t.Helper()
	want, ok := goldenAssembly[name]
	switch {
	case !ok:
		t.Errorf("%q: %q, // no golden digest recorded", name, got)
	case got != want:
		t.Errorf("%s: digest %s, want %s", name, got, want)
	}
}

func checkMemory(t *testing.T, name string, s *synth.Synthesis, rounds int, basis experiment.Basis) {
	t.Helper()
	m, err := experiment.NewMemory(s, rounds, experiment.Options{Basis: basis})
	if err != nil {
		t.Fatal(err)
	}
	checkAssembly(t, name, assemblyDigest(t, m.Circuit, m.DetectorRound, m.Noisy))
}

// TestGoldenMemoryAssembly pins the one-patch memory circuits.
func TestGoldenMemoryAssembly(t *testing.T) {
	for _, kind := range device.AllKinds() {
		for _, d := range []int{3, 5} {
			s, err := synth.Synthesize(context.Background(), devicetest.ForDistance(t, kind, d), d, synth.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, basis := range []experiment.Basis{experiment.BasisZ, experiment.BasisX} {
				for _, rounds := range []int{1, 3 * d} {
					checkMemory(t, fmt.Sprintf("%v/d%d/%v/r%d", kind, d, basis, rounds), s, rounds, basis)
				}
			}
		}
	}
}

// TestGoldenDegradedMemoryAssembly pins memories over syntheses that
// dropped stabilizers: the assembler must skip their detectors.
func TestGoldenDegradedMemoryAssembly(t *testing.T) {
	for _, c := range []struct {
		kind    device.Kind
		density float64
		seed    int64
	}{
		{device.KindHeavyHexagon, 0.08, 2},
		{device.KindHeavyHexagon, 0.12, 2},
		{device.KindHexagon, 0.16, 7},
	} {
		dev := devicetest.Damaged(t, devicetest.ForDistance(t, c.kind, 5), "random", c.density, c.seed)
		s, err := synth.Synthesize(context.Background(), dev, 3, synth.Options{Degrade: true})
		if err != nil {
			t.Fatal(err)
		}
		if s.Degradation == nil || len(s.Degradation.Dropped) == 0 {
			t.Fatalf("%v density %g seed %d: no stabilizer dropped", c.kind, c.density, c.seed)
		}
		checkMemory(t, fmt.Sprintf("degraded/%v/%g/%d", c.kind, c.density, c.seed), s, 9, experiment.BasisZ)
	}
}

// TestGoldenLayoutAssembly pins the 2-patch d=3 surgery circuits.
func TestGoldenLayoutAssembly(t *testing.T) {
	for _, kind := range []device.Kind{device.KindHeavySquare, device.KindSquare} {
		for _, j := range []surgery.Joint{surgery.JointZZ, surgery.JointXX} {
			w, h := 4, 7 // heavy-square, vertical pair
			if kind == device.KindSquare {
				w, h = 12, 14
			}
			b := surgery.PatchSpec{Name: "b", Row: 1, Distance: 3}
			if j == surgery.JointXX {
				w, h = h, w
				b.Row, b.Col = 0, 1
			}
			spec := surgery.Spec{
				Patches: []surgery.PatchSpec{{Name: "a", Distance: 3}, b},
				Ops:     []surgery.Op{{A: 0, B: 1, Joint: j}},
			}
			p, err := surgery.Pack(context.Background(), device.ByKind(kind, w, h), spec, synth.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e, err := surgery.NewExperiment(p, surgery.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkAssembly(t, fmt.Sprintf("layout/%v/%v", kind, j), assemblyDigest(t, e.Circuit, e.DetectorRound, e.Noisy))
		}
	}
}
