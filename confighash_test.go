package surfstitch

import (
	"strings"
	"testing"
)

// The golden digests freeze the canonical form: if any of these change, a
// refactor has silently altered the cache-key encoding and every
// content-addressed result cache in the wild is invalidated. Update the
// constants only for a deliberate, documented key-schema change.
const (
	goldenHashSynthSquare   = "36b27c1cbe21868f15b5b3d9c5320335bde2cbe26f5292faec07d33269c7089e"
	goldenHashCurveHeavyHex = "44c60e034e38ff9ffc85d418b3e01564e5cb7f48c0f659f7058873c44934721d"
	goldenHashSurgerySquare = "9763153eabbc823ab01824bd44598677a364440bce156a0f1ab603b21f746aaf"
)

func TestConfigHashGoldenValues(t *testing.T) {
	square := MustDevice(Square, 4, 4)
	got, err := ConfigHash("synthesize", square, 3, Options{}, nil, RunConfig{})
	if err != nil {
		t.Fatalf("ConfigHash: %v", err)
	}
	if got != goldenHashSynthSquare {
		t.Errorf("synthesize golden hash drifted:\n got  %s\n want %s", got, goldenHashSynthSquare)
	}

	hh := MustDevice(HeavyHexagon, 4, 5)
	got, err = ConfigHash("curve", hh, 3, Options{Mode: ModeFour, CoOptimize: true},
		[]float64{0.001, 0.002, 0.004},
		RunConfig{Shots: 10000, Seed: 7, Basis: BasisX, TargetRSE: 0.1, MaxErrors: 50})
	if err != nil {
		t.Fatalf("ConfigHash: %v", err)
	}
	if got != goldenHashCurveHeavyHex {
		t.Errorf("curve golden hash drifted:\n got  %s\n want %s", got, goldenHashCurveHeavyHex)
	}
}

// TestLayoutConfigHashGoldenValue freezes the surgery-namespaced canonical
// form the same way.
func TestLayoutConfigHashGoldenValue(t *testing.T) {
	layout := twoPatchLayout(3, JointXX)
	layout.PreRounds, layout.MergeRounds = 2, 4
	got, err := LayoutConfigHash("surgery", MustDevice(Square, 14, 12), layout,
		Options{Mode: ModeFour, NoRefine: true}, []float64{0.002},
		RunConfig{Shots: 500, Seed: 3, IdleError: 0.0005, MaxErrors: 20, UnionFind: true})
	if err != nil {
		t.Fatalf("LayoutConfigHash: %v", err)
	}
	if got != goldenHashSurgerySquare {
		t.Errorf("surgery golden hash drifted:\n got  %s\n want %s", got, goldenHashSurgerySquare)
	}
}

func TestConfigHashIgnoresNonSemanticFields(t *testing.T) {
	dev := MustDevice(Square, 4, 4)
	base, err := ConfigHash("estimate", dev, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1})
	if err != nil {
		t.Fatalf("ConfigHash: %v", err)
	}
	variants := map[string]RunConfig{
		"workers":  {Seed: 1, Workers: 7},
		"registry": {Seed: 1, Registry: NewRegistry()},
		// Zero fields normalize to the defaults they resolve to.
		"explicit defaults": {Seed: 1, Shots: 2000, Rounds: 9, IdleError: DefaultIdleError},
	}
	for name, cfg := range variants {
		got, err := ConfigHash("estimate", dev, 3, Options{}, []float64{0.002}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != base {
			t.Errorf("%s changed the hash: %s != %s", name, got, base)
		}
	}
	// A renamed but otherwise identical custom device must hash the same.
	var qs []Coord
	var cs [][2]Coord
	for q := 0; q < dev.Len(); q++ {
		qs = append(qs, dev.Coord(q))
	}
	for _, e := range dev.Graph().Edges() {
		cs = append(cs, [2]Coord{dev.Coord(e[0]), dev.Coord(e[1])})
	}
	for _, name := range []string{"alpha", "beta"} {
		cd, err := NewCustomDevice(name, qs, cs)
		if err != nil {
			t.Fatalf("custom device: %v", err)
		}
		got, err := ConfigHash("estimate", cd, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1})
		if err != nil {
			t.Fatalf("ConfigHash(%s): %v", name, err)
		}
		if got != base {
			t.Errorf("device name %q leaked into the hash", name)
		}
	}
}

func TestConfigHashSeparatesSemanticFields(t *testing.T) {
	dev := MustDevice(Square, 4, 4)
	base, err := ConfigHash("estimate", dev, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1})
	if err != nil {
		t.Fatalf("ConfigHash: %v", err)
	}
	type variant struct {
		kind     string
		dev      *Device
		distance int
		opts     Options
		ps       []float64
		cfg      RunConfig
	}
	defective, err := GenerateDefects(dev, "random", 0.05, 3)
	if err != nil {
		t.Fatalf("GenerateDefects: %v", err)
	}
	damaged, err := dev.WithDefects(defective)
	if err != nil {
		t.Fatalf("WithDefects: %v", err)
	}
	calGood, err := GenerateCalibration(dev, "good", 1)
	if err != nil {
		t.Fatalf("GenerateCalibration: %v", err)
	}
	calibrated, err := dev.WithCalibration(calGood)
	if err != nil {
		t.Fatalf("WithCalibration: %v", err)
	}
	calBad, err := GenerateCalibration(dev, "bad", 1)
	if err != nil {
		t.Fatalf("GenerateCalibration: %v", err)
	}
	calibratedBad, err := dev.WithCalibration(calBad)
	if err != nil {
		t.Fatalf("WithCalibration: %v", err)
	}
	variants := map[string]variant{
		"kind":            {"curve", dev, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1}},
		"calibration":     {"estimate", calibrated, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1}},
		"calibration bad": {"estimate", calibratedBad, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1}},
		"device":          {"estimate", MustDevice(Square, 5, 4), 3, Options{}, []float64{0.002}, RunConfig{Seed: 1}},
		"defects":         {"estimate", damaged, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1}},
		"distance":        {"estimate", dev, 4, Options{}, []float64{0.002}, RunConfig{Seed: 1}},
		"options":         {"estimate", dev, 3, Options{NoRefine: true}, []float64{0.002}, RunConfig{Seed: 1}},
		"ps":              {"estimate", dev, 3, Options{}, []float64{0.003}, RunConfig{Seed: 1}},
		"seed":            {"estimate", dev, 3, Options{}, []float64{0.002}, RunConfig{Seed: 2}},
		"shots":           {"estimate", dev, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1, Shots: 4000}},
		"basis":           {"estimate", dev, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1, Basis: BasisX}},
		"no_idle":         {"estimate", dev, 3, Options{}, []float64{0.002}, RunConfig{Seed: 1, NoIdle: true}},
	}
	seen := map[string]string{base: "base"}
	for name, v := range variants {
		got, err := ConfigHash(v.kind, v.dev, v.distance, v.opts, v.ps, v.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, got)
		}
		seen[got] = name
	}
}

func TestConfigHashRejectsInvalidInputs(t *testing.T) {
	dev := MustDevice(Square, 4, 4)
	cases := map[string]func() (string, error){
		"empty kind": func() (string, error) { return ConfigHash("", dev, 3, Options{}, nil, RunConfig{}) },
		"nil device": func() (string, error) { return ConfigHash("synthesize", nil, 3, Options{}, nil, RunConfig{}) },
		"distance":   func() (string, error) { return ConfigHash("synthesize", dev, 1, Options{}, nil, RunConfig{}) },
		"bad p":      func() (string, error) { return ConfigHash("curve", dev, 3, Options{}, []float64{2}, RunConfig{}) },
		"bad config": func() (string, error) { return ConfigHash("estimate", dev, 3, Options{}, nil, RunConfig{Shots: -1}) },
	}
	for name, f := range cases {
		if _, err := f(); !strings.Contains(errString(err), "invalid configuration") {
			t.Errorf("%s: want ErrInvalidConfig, got %v", name, err)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
