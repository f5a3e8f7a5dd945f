package dem_test

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

// digest hashes a model exactly: its dimensions, then every mechanism in
// order with its detectors, observable mask and the bits of its
// probability. Two models share a digest only if decoders built from them
// make identical choices, tie-breaks included.
func digest(m *dem.Model) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
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
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// goldenDigests pins the models the lane-parallel forward extractor
// produced, so any later extractor must reproduce them bit for bit.
var goldenDigests = map[string]string{
	"square/d3":                           "cad349ef87f6c1baba97fe4f4b89c42c",
	"square/d5":                           "edaa76b918e0e6af81ffaaf93cdbef06",
	"square/d7":                           "02f7762113472c6f227a5743f447c520",
	"hexagon/d3":                          "7c036b82536e5014354768ed732f8577",
	"hexagon/d5":                          "43134773b94fc1b6567e53694179fc8f",
	"hexagon/d7":                          "7be1ce3e09499abbd9e43d93a02aeadc",
	"octagon/d3":                          "b69133f8f2b2c4c95456fdcee6f01680",
	"octagon/d5":                          "ed3e1e04c512778e64e1880644a160f5",
	"octagon/d7":                          "d23fa1129c67e27bf98a72f70e3b9fe5",
	"heavy-square/d3":                     "244f82094dcebb690fbe64244f5bac05",
	"heavy-square/d5":                     "1c4081927dd7bced8158bab9c33e33d6",
	"heavy-square/d7":                     "329949a135da2701f457d71fc56511ce",
	"heavy-hexagon/d3":                    "f2b6893465abe2dd8d6196c277ea37d1",
	"heavy-hexagon/d5":                    "7c2ddd3cf9d3001a7c1e5a5f25fdffd8",
	"heavy-hexagon/d7":                    "557b308dd1f86f4f7c4cc8f4e6facb08",
	"device-aware/median/heavy-square/d3": "9919c33203c39d81e619244028c90577",
	"surgery/zz/heavy-square/d3":          "6f5ad1ccae988e8b1637fefe5ddece46",
}

const goldenP = 0.003

func memoryCircuit(t testing.TB, dev *device.Device, d int) (*experiment.Memory, *synth.Synthesis) {
	t.Helper()
	s, err := synth.Synthesize(context.Background(), dev, d, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := experiment.NewMemory(s, 3*d, experiment.Options{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	return mem, s
}

func checkGolden(t *testing.T, name string, c *circuit.Circuit) {
	t.Helper()
	m, err := dem.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	got := digest(m)
	want, ok := goldenDigests[name]
	if !ok {
		t.Errorf("%s: no golden digest recorded; got %q (%d mechanisms)", name, got, len(m.Mechanisms))
		return
	}
	if got != want {
		t.Errorf("%s: model digest %s, want %s (%d mechanisms)", name, got, want, len(m.Mechanisms))
	}
}

// TestGoldenMemoryModels pins the uniform-noise memory models of every
// tiling at d = 3, 5 and 7.
func TestGoldenMemoryModels(t *testing.T) {
	for _, kind := range device.AllKinds() {
		for _, d := range []int{3, 5, 7} {
			name := fmt.Sprintf("%v/d%d", kind, d)
			t.Run(name, func(t *testing.T) {
				mem, _ := memoryCircuit(t, devicetest.ForDistance(t, kind, d), d)
				c, err := mem.Noisy(noise.Uniform(goldenP))
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name, c)
			})
		}
	}
}

// TestGoldenDeviceAwareModel pins a model whose channels all differ in
// strength: a median calibration snapshot through the device-aware noise.
func TestGoldenDeviceAwareModel(t *testing.T) {
	dev := devicetest.ForDistance(t, device.KindHeavySquare, 3)
	cal, err := device.GenerateCalibration(dev, "median", 7)
	if err != nil {
		t.Fatal(err)
	}
	calDev, err := dev.WithCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	mem, s := memoryCircuit(t, calDev, 3)
	da, err := noise.NewDeviceAware(calDev, goldenP, true, s.AllQubits())
	if err != nil {
		t.Fatal(err)
	}
	c, err := da.Apply(mem.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "device-aware/median/heavy-square/d3", c)
}

// TestGoldenSurgeryModel pins a two-observable-family model: a 2-patch ZZ
// lattice-surgery circuit.
func TestGoldenSurgeryModel(t *testing.T) {
	spec := surgery.Spec{
		Patches: []surgery.PatchSpec{{Name: "a", Row: 0, Col: 0, Distance: 3}, {Name: "b", Row: 1, Col: 0, Distance: 3}},
		Ops:     []surgery.Op{{A: 0, B: 1, Joint: surgery.JointZZ}},
	}
	p, err := surgery.Pack(context.Background(), device.HeavySquare(4, 7), spec, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := surgery.NewExperiment(p, surgery.Options{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Noisy(noise.Uniform(goldenP))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "surgery/zz/heavy-square/d3", c)
}
