package verify

import (
	"context"
	"testing"

	"surfstitch/internal/device"
	"surfstitch/internal/surgery"
	"surfstitch/internal/synth"
)

func packTwo(t *testing.T, dev *device.Device, j surgery.Joint, d int) *surgery.Placement {
	t.Helper()
	spec := surgery.Spec{
		Patches: []surgery.PatchSpec{{Name: "a", Distance: d}, {Name: "b", Row: 1, Distance: d}},
		Ops:     []surgery.Op{{A: 0, B: 1, Joint: j}},
	}
	if j == surgery.JointXX {
		spec.Patches[1].Row, spec.Patches[1].Col = 0, 1
	}
	p, err := surgery.Pack(context.Background(), dev, spec, synth.Options{})
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	return p
}

// TestLayoutVerify holds a packed 2-patch merge to the full verification
// bar: per-patch certified distance must survive placement with neighbors,
// and the combined surgery circuit must pass determinism, certification and
// the single-fault sweep.
func TestLayoutVerify(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  *device.Device
		j    surgery.Joint
	}{
		{"heavy-square-zz", device.HeavySquare(4, 7), surgery.JointZZ},
		{"square-xx", device.Square(14, 6), surgery.JointXX},
		{"square-zz", device.Square(6, 14), surgery.JointZZ},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := packTwo(t, tc.dev, tc.j, 3)
			r := Layout(p, Options{})
			if len(r.Patches) != 2 {
				t.Fatalf("got %d patch reports, want 2", len(r.Patches))
			}
			for _, pr := range r.Patches {
				if pr.CertifiedDistance != 0 && pr.CertifiedDistance < pr.ClaimedDistance {
					t.Errorf("patch %q certified distance %d below claim %d",
						pr.Name, pr.CertifiedDistance, pr.ClaimedDistance)
				}
			}
			if !r.Pass() {
				t.Errorf("layout verification failed:\n%s", r)
			}
		})
	}
}

// TestLayoutVerifySinglePatch: the one-patch layout path reports one patch
// and stays consistent with the legacy Synthesis verification.
func TestLayoutVerifySinglePatch(t *testing.T) {
	dev := device.HeavySquare(4, 3)
	p, err := surgery.Pack(context.Background(), dev,
		surgery.Spec{Patches: []surgery.PatchSpec{{Name: "solo", Distance: 3}}}, synth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := Layout(p, Options{})
	if len(r.Patches) != 1 || r.Patches[0].Name != "solo" {
		t.Fatalf("patch reports: %+v", r.Patches)
	}
	if !r.Pass() {
		t.Errorf("single-patch layout verification failed:\n%s", r)
	}
	legacy := Synthesis(p.Patches[0], Options{})
	if !legacy.Pass() {
		t.Errorf("legacy verification of the same synthesis failed:\n%s", legacy)
	}
}
