package decoder

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"surfstitch/internal/device"
)

// adjacencyDigest hashes a decoder's matching graph exactly: every node's
// half-edges in order with their endpoint, the bits of their weight and
// their observable mask, then the undetectable-observable mask. Two decoders
// share a digest only if they make identical shortest-path choices.
func adjacencyDigest(d *Decoder) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(d.adj)))
	for _, hs := range d.adj {
		put(uint64(len(hs)))
		for _, e := range hs {
			put(uint64(e.to))
			put(math.Float64bits(e.weight))
			put(e.obs)
		}
	}
	put(d.UndetectableObs)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// goldenAdjacency pins the heavy tilings' matching graphs as the greedy
// hyperedge peel built them: on these tilings the exhaustive decomposition
// must reproduce them bit for bit.
var goldenAdjacency = map[string]string{
	"heavy-square/d3/p0.001":  "e32befad3aa1a03ebdea35f4633090ce",
	"heavy-square/d3/p0.003":  "2ba94b2e1ab4b5643becf27b882da036",
	"heavy-square/d5/p0.001":  "535d54a79dc796d64d5d3c9ca78960f6",
	"heavy-square/d5/p0.003":  "d97f49f61e803b314786fff71d0b4b43",
	"heavy-square/d7/p0.001":  "f519de95022c87268ef77e47d02b7c27",
	"heavy-square/d7/p0.003":  "056eee65573afe19d1debef1d4728f29",
	"heavy-hexagon/d3/p0.001": "da76eb1dbf7ae89fe014310a7e5ae615",
	"heavy-hexagon/d3/p0.003": "c919099e255465a4f87f329745f39c71",
	"heavy-hexagon/d5/p0.001": "9dc6393cc2020c46446490978a74c2a0",
	"heavy-hexagon/d5/p0.003": "9390fe60cc87d7b2495116b6b0e3b816",
	"heavy-hexagon/d7/p0.001": "d7bb99f6e6c93a4ff35de4ed81f5eced",
	"heavy-hexagon/d7/p0.003": "44272d4091ebde6a2349c223fb91c06c",
}

// TestGoldenHeavyAdjacency pins the heavy-square and heavy-hexagon decoder
// graphs at d = 3, 5 and 7 and p = 0.001 and 0.003.
func TestGoldenHeavyAdjacency(t *testing.T) {
	for _, kind := range []device.Kind{device.KindHeavySquare, device.KindHeavyHexagon} {
		for _, d := range []int{3, 5, 7} {
			for _, p := range []float64{0.001, 0.003} {
				name := fmt.Sprintf("%v/d%d/p%g", kind, d, p)
				t.Run(name, func(t *testing.T) {
					model, _, _ := synthesizedNoisyMemory(t, kind, d, p)
					dec, err := New(model)
					if err != nil {
						t.Fatal(err)
					}
					got := adjacencyDigest(dec)
					if want, ok := goldenAdjacency[name]; !ok || got != want {
						t.Errorf("%s: adjacency digest %s, want %s", name, got, want)
					}
				})
			}
		}
	}
}
