package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkMatMul tracks the throughput of the float64 MatMul kernel at
// the matrix sizes the experiment networks produce (run with -benchmem).
func BenchmarkMatMul(b *testing.B) {
	for _, size := range []int{32, 96, 192} {
		rng := NewRNG(uint64(size))
		x := MustNew(size, size)
		y := MustNew(size, size)
		x.FillNormal(rng, 1)
		y.FillNormal(rng, 1)
		b.Run(fmt.Sprintf("serial/%dx%d", size, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (Serial{}).MatMul(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConv2D tracks the float64 convolution kernel (forward plus
// backward) on a CIFAR-scale feature map.
func BenchmarkConv2D(b *testing.B) {
	rng := NewRNG(7)
	x := MustNew(8, 32, 32)
	w := MustNew(16, 8, 3, 3)
	bias := MustNew(16)
	x.FillNormal(rng, 1)
	w.FillNormal(rng, 0.2)
	bias.FillNormal(rng, 0.1)
	b.Run("forward/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (Serial{}).Conv2D(x, w, bias, 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	y, err := Serial{}.Conv2D(x, w, bias, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	gy := MustNew(y.Shape()...)
	gy.FillNormal(rng, 1)
	b.Run("backward/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := (Serial{}).Conv2DGrads(x, w, gy, 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
