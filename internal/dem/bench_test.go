package dem_test

import (
	"fmt"
	"testing"

	"surfstitch/internal/dem"
	"surfstitch/internal/device"
	"surfstitch/internal/devicetest"
	"surfstitch/internal/noise"
)

// BenchmarkFromCircuit measures one model extraction from the heavy-square
// memory circuit (3d rounds, uniform p = 0.003), the build every threshold
// point pays.
func BenchmarkFromCircuit(b *testing.B) {
	for _, d := range []int{3, 7} {
		b.Run(fmt.Sprintf("heavy-square/d=%d", d), func(b *testing.B) {
			mem, _ := memoryCircuit(b, devicetest.ForDistance(b, device.KindHeavySquare, d), d)
			c, err := mem.Noisy(noise.Uniform(goldenP))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dem.FromCircuit(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
