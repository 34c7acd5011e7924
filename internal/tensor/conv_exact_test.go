package tensor

import (
	"fmt"
	"math"
	"testing"
)

// convCase is one comparison of an engine's fused convolution (im2colMul
// forward, convGradsSweep backward) against the reference loops conv2DDirect
// and convGradsInto.
type convCase struct {
	seed                  uint64
	cIn, f, k, pad, hw    int
	stride                int
	zeroPct               int // share of gy set to exactly zero
	relu, noInputGrad     bool
	zeroWeights, negZeroB bool
}

func (c convCase) String() string {
	return fmt.Sprintf("seed%d/c%d_f%d_k%d_p%d_s%d_hw%d/gy0=%d%%/relu=%v/noGX=%v/w0=%v/b-0=%v",
		c.seed, c.cIn, c.f, c.k, c.pad, c.stride, c.hw, c.zeroPct, c.relu, c.noInputGrad, c.zeroWeights, c.negZeroB)
}

// checkConvFusedBitExact runs one case on engine e: out, mask, gx, gw and gb
// of the fused kernels must equal the reference's bit for bit (Float64bits or
// Float32bits), accumulating into non-zero gwAcc/gbAcc.
func checkConvFusedBitExact[T Elem](t *testing.T, e *engine[T], c convCase) {
	t.Helper()
	r := NewRNG(c.seed)
	x := MustNewOf(e.dt, c.cIn, c.hw, c.hw)
	w := MustNewOf(e.dt, c.f, c.cIn, c.k, c.k)
	b := MustNewOf(e.dt, c.f)
	x.FillNormal(r, 1)
	w.FillNormal(r, 0.5)
	b.FillNormal(r, 0.5)
	if c.zeroWeights {
		// Exact zeros land in some four-tap blocks and not in others, so
		// both the chain and its one-tap fallback run.
		wd := e.data(w)
		for i := range wd {
			if r.Float64() < 0.15 {
				wd[i] = 0
			}
		}
	}
	if c.negZeroB {
		e.data(b)[0] = T(math.Copysign(0, -1))
	}
	d, err := e.convCheck(x, w, b, c.pad, c.stride)
	if err != nil {
		t.Fatalf("%s %v: %v", e.name, c, err)
	}
	label := e.name + " " + c.String()

	// Forward: the direct loop, then a standalone ReLU.
	direct := MustNewOf(e.dt, d.f, d.oh, d.ow)
	e.conv2DDirect(x, w, b, direct, c.pad, c.stride, d)
	wantOut, act := direct, ActNone
	var wantMask []bool
	if c.relu {
		wantOut, wantMask = reluRef(direct)
		act = ActReLU
	}
	ws := &Workspace{NoInputGrad: c.noInputGrad}
	out, err := e.Conv2DFused(x, w, b, c.pad, c.stride, act, ws)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	bitsEqual(t, label+" out", out, wantOut)
	if c.relu {
		for i, m := range wantMask {
			if ws.mask[i] != m {
				t.Fatalf("%s: mask[%d] = %v, want %v", label, i, ws.mask[i], m)
			}
		}
	}

	// Backward: the scatter over the masked gradient, then fresh-then-add
	// into accumulators that already hold something.
	gy := MustNewOf(e.dt, d.f, d.oh, d.ow)
	gy.FillNormal(r, 1)
	gyd := e.data(gy)
	for i := range gyd {
		if r.Float64()*100 < float64(c.zeroPct) {
			gyd[i] = 0
		}
	}
	wantGX := MustNewOf(e.dt, c.cIn, c.hw, c.hw)
	gwFresh := MustNewOf(e.dt, c.f, c.cIn, c.k, c.k)
	gbFresh := MustNewOf(e.dt, c.f)
	convGradsInto(e.data(x), e.data(w), gyd, c.pad, c.stride, wantMask, e.data(wantGX), e.data(gwFresh), e.data(gbFresh), d)
	wantGW := MustNewOf(e.dt, c.f, c.cIn, c.k, c.k)
	wantGB := MustNewOf(e.dt, c.f)
	wantGW.FillNormal(r, 1)
	wantGB.FillNormal(r, 1)
	gwAcc, gbAcc := wantGW.Clone(), wantGB.Clone()
	if err := wantGW.AddInPlace(gwFresh); err != nil {
		t.Fatal(err)
	}
	if err := wantGB.AddInPlace(gbFresh); err != nil {
		t.Fatal(err)
	}
	gx, err := e.Conv2DGradsFused(x, w, gy, c.pad, c.stride, act, gwAcc, gbAcc, ws)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	bitsEqual(t, label+" gw", gwAcc, wantGW)
	bitsEqual(t, label+" gb", gbAcc, wantGB)
	switch {
	case gx != nil:
		bitsEqual(t, label+" gx", gx, wantGX)
	case !c.noInputGrad:
		t.Fatalf("%s: no input gradient returned, and the workspace did not waive it", label)
	}
	if c.noInputGrad && c.stride == 1 && gx != nil {
		t.Fatalf("%s: input gradient computed although the workspace waived it", label)
	}
}

// checkBothEngines runs one case on the float64 and the float32 engine.
func checkBothEngines(t *testing.T, c convCase) {
	t.Helper()
	checkConvFusedBitExact(t, serialRef, c)
	checkConvFusedBitExact(t, serialRef32, c)
}

// TestConvFusedBitExact holds both engines' fused convolution to the
// reference loops over the shapes where the two can part: channel and filter
// counts on both sides of every block size (odd counts reach the tails),
// kernels 1/3/5 (one, one and two tap chains per filter row), padding from
// none to wider than the kernel, the strided fallback, gradients from dense
// to all-masked, zero weights, and the first layer's waived input gradient.
func TestConvFusedBitExact(t *testing.T) {
	seed := uint64(0)
	run := func(c convCase) {
		seed++
		c.seed = seed
		checkBothEngines(t, c)
	}
	for _, k := range []int{1, 3, 5} {
		for pad := 0; pad <= 2; pad++ {
			for _, stride := range []int{1, 2} {
				for _, cIn := range []int{1, 3, 8} {
					for _, f := range []int{1, 2, 5, 12, 13} {
						run(convCase{
							cIn: cIn, f: f, k: k, pad: pad, stride: stride, hw: 5 + (cIn+f)%4,
							zeroPct: []int{0, 50, 90, 100}[(cIn+f+k+pad)%4],
							relu:    (f+pad)%3 != 0, noInputGrad: (cIn+f)%2 == 0,
							zeroWeights: (f+k)%2 == 0,
						})
					}
				}
			}
		}
	}
	// MNISTSmall's two layers as the network runs them, and the corners the
	// grid's arithmetic does not reach together.
	for _, zeroPct := range []int{0, 50, 90, 100} {
		for _, relu := range []bool{true, false} {
			run(convCase{cIn: 1, f: 6, k: 3, pad: 1, stride: 1, hw: 14, zeroPct: zeroPct, relu: relu, noInputGrad: true})
			run(convCase{cIn: 6, f: 12, k: 3, pad: 1, stride: 1, hw: 7, zeroPct: zeroPct, relu: relu, zeroWeights: true})
			run(convCase{cIn: 2, f: 3, k: 5, pad: 2, stride: 1, hw: 6, zeroPct: zeroPct, relu: relu, zeroWeights: true})
		}
		// A -0.0 bias reaches an output only through ReLU here: under
		// ActNone an output whose window is all padding keeps the direct
		// loop's -0.0 and im2col's +0.0 apart (DESIGN.md §2 rule 2 says
		// why training never gets there).
		run(convCase{cIn: 4, f: 7, k: 3, pad: 2, stride: 1, hw: 5, zeroPct: zeroPct, relu: true, negZeroB: true, zeroWeights: true})
	}
}

// FuzzConvFusedBitExact draws the case itself from the fuzzer's bytes; the
// tensors still come from a seeded RNG, so every input is a finite,
// reproducible case.
func FuzzConvFusedBitExact(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(5), uint8(1), uint8(1), uint8(0), uint8(9), uint8(1), uint8(0b0101))
	f.Add(uint64(2), uint8(5), uint8(11), uint8(1), uint8(1), uint8(0), uint8(2), uint8(2), uint8(0b0110))
	f.Add(uint64(3), uint8(7), uint8(12), uint8(2), uint8(2), uint8(1), uint8(3), uint8(3), uint8(0b1011))
	f.Add(uint64(4), uint8(2), uint8(0), uint8(0), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0b0000))
	f.Fuzz(func(t *testing.T, seed uint64, cIn, filters, kernel, pad, stride, hw, zero, flags uint8) {
		c := convCase{
			seed:    seed,
			cIn:     1 + int(cIn)%8,
			f:       1 + int(filters)%13,
			k:       []int{1, 3, 5}[int(kernel)%3],
			pad:     int(pad) % 3,
			stride:  1 + int(stride)%2,
			hw:      5 + int(hw)%10,
			zeroPct: []int{0, 50, 90, 100}[int(zero)%4],
			relu:    flags&1 != 0, noInputGrad: flags&2 != 0, zeroWeights: flags&4 != 0,
		}
		c.negZeroB = c.relu && flags&8 != 0
		checkBothEngines(t, c)
	})
}

// TestConvFusedZeroWeightSkipsTap pins the one thing the chain's fallback is
// for: a zero weight contributes nothing at all, as in the one-tap loop, not
// 0·x — which for an infinite x would be NaN.
func TestConvFusedZeroWeightSkipsTap(t *testing.T) {
	x := MustNew(2, 5, 5)
	w := MustNew(3, 2, 3, 3) // filter 0 stays all zero
	b := MustNew(3)
	r := NewRNG(5)
	x.FillNormal(r, 1)
	b.FillNormal(r, 1)
	for i := 18; i < len(w.data); i++ {
		w.data[i] = r.NormFloat64()
	}
	x.data[7] = math.Inf(1)
	out, err := serialRef.Conv2DFused(x, w, b, 1, 1, ActNone, &Workspace{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.data[:25] {
		if math.Float64bits(v) != math.Float64bits(b.data[0]) {
			t.Fatalf("out[0][%d] = %v, want the bias %v: a zero weight was multiplied in", i, v, b.data[0])
		}
	}
}
