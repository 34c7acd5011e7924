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

// BenchmarkConv2DGradsFused tracks the fused convolution backward — the
// kernel a training step spends most of its time in — on MNISTSmall's two
// convolutions as the network runs them: through the ReLU mask the matching
// fused forward recorded, the first layer with its input gradient waived, on
// both engines.
func BenchmarkConv2DGradsFused(b *testing.B) {
	for _, sh := range []struct {
		name         string
		cIn, hw, out int
	}{
		{"conv1_1x14x14_6", 1, 14, 6},
		{"conv2_6x7x7_12", 6, 7, 12},
	} {
		for _, be := range []Backend{Serial{}, NewSerial32()} {
			rng := NewRNG(7)
			fill := func(shape ...int) *Tensor {
				t := MustNewOf(be.DType(), shape...)
				t.FillNormal(rng, 0.1)
				return t
			}
			x, w, bias := fill(sh.cIn, sh.hw, sh.hw), fill(sh.out, sh.cIn, 3, 3), fill(sh.out)
			gy, gw, gb := fill(sh.out, sh.hw, sh.hw), fill(sh.out, sh.cIn, 3, 3), fill(sh.out)
			ws := Workspace{NoInputGrad: sh.cIn == 1}
			if _, err := be.Conv2DFused(x, w, bias, 1, 1, ActReLU, &ws); err != nil {
				b.Fatal(err)
			}
			b.Run(sh.name+"/"+be.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := be.Conv2DGradsFused(x, w, gy, 1, 1, ActReLU, gw, gb, &ws); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
