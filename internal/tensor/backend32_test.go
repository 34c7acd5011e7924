package tensor

import (
	"errors"
	"math"
	"strings"
	"testing"

	"aergia/internal/race"
)

// TestCanonicalBackendTable covers every accepted backend name, aliases
// included, plus the unknown-name error (which must mention all registered
// names).
func TestCanonicalBackendTable(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"", "serial"},
		{"serial", "serial"},
		{"parallel", "serial"},
		{"serial32", "serial32"},
		{"parallel32", "serial32"},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		got, err := CanonicalBackend(c.name)
		if err != nil || got != c.want {
			t.Fatalf("CanonicalBackend(%q) = %q, %v; want %q", c.name, got, err, c.want)
		}
		seen[got] = true
	}
	for _, name := range BackendNames() {
		if !seen[name] {
			t.Fatalf("registered backend %q not covered by CanonicalBackend", name)
		}
		be, err := NewBackend(name, 2)
		if err != nil {
			t.Fatalf("NewBackend(%q) error: %v", name, err)
		}
		if be.Name() != name {
			t.Fatalf("NewBackend(%q).Name() = %q", name, be.Name())
		}
	}
	if _, err := CanonicalBackend("quantum"); err == nil {
		t.Fatal("CanonicalBackend accepted unknown name")
	} else {
		for _, name := range BackendNames() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("unknown-name error %q does not mention %q", err, name)
			}
		}
	}
}

func fillRandOf(t *Tensor, r *RNG) {
	t.FillNormal(r, 1)
}

// reluRef replicates the historical standalone ReLU layer semantics: mask =
// v > 0, non-positives clamp to +0.0.
func reluRef(t *Tensor) (*Tensor, []bool) {
	out := t.Clone()
	mask := make([]bool, t.Size())
	n := t.Size()
	for i := 0; i < n; i++ {
		var v float64
		if t.DType() == F32 {
			v = float64(out.Data32()[i])
		} else {
			v = out.Data()[i]
		}
		mask[i] = v > 0
		if v <= 0 {
			if t.DType() == F32 {
				out.Data32()[i] = 0
			} else {
				out.Data()[i] = 0
			}
		}
	}
	return out, mask
}

func maskGrad(gy *Tensor, mask []bool) *Tensor {
	g := gy.Clone()
	n := g.Size()
	for i := 0; i < n; i++ {
		if !mask[i] {
			if g.DType() == F32 {
				g.Data32()[i] = 0
			} else {
				g.Data()[i] = 0
			}
		}
	}
	return g
}

func bitsEqual(t *testing.T, name string, a, b *Tensor) {
	t.Helper()
	if !a.SameShape(b) || a.DType() != b.DType() {
		t.Fatalf("%s: shape/dtype mismatch %v/%v vs %v/%v", name, a.Shape(), a.DType(), b.Shape(), b.DType())
	}
	n := a.Size()
	for i := 0; i < n; i++ {
		if a.DType() == F32 {
			if math.Float32bits(a.Data32()[i]) != math.Float32bits(b.Data32()[i]) {
				t.Fatalf("%s: element %d bits differ: %v vs %v", name, i, a.Data32()[i], b.Data32()[i])
			}
		} else {
			if math.Float64bits(a.Data()[i]) != math.Float64bits(b.Data()[i]) {
				t.Fatalf("%s: element %d bits differ: %v vs %v", name, i, a.Data()[i], b.Data()[i])
			}
		}
	}
}

// fusedVsComposed checks that the fused/workspace kernels reproduce the
// composition of the plain kernels with a standalone activation,
// bit-for-bit, for the given backend and dtype. For float64 backends the
// composed side IS the golden-pinned historical dataflow, so this test
// guards the golden runs against fused-path regressions.
func fusedVsComposed(t *testing.T, be Backend, dt DType) {
	r := NewRNG(42)
	x := MustNewOf(dt, 3, 12, 12)
	w := MustNewOf(dt, 4, 3, 3, 3)
	b := MustNewOf(dt, 4)
	fillRandOf(x, r)
	fillRandOf(w, r)
	fillRandOf(b, r)
	ws := &Workspace{}

	// Conv2D + ReLU forward.
	plain, err := be.Conv2D(x, w, b, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, mask := reluRef(plain)
	fused, err := be.Conv2DFused(x, w, b, 1, 1, ActReLU, ws)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "Conv2DFused(ReLU)", fused, wantOut)

	// Conv2D backward through the mask, with staged-then-accumulated
	// weight/bias gradients.
	gy := MustNewOf(dt, 4, 12, 12)
	fillRandOf(gy, r)
	gm := maskGrad(gy, mask)
	wantGx, gwFresh, gbFresh, err := be.Conv2DGrads(x, w, gm, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gwWant := MustNewOf(dt, 4, 3, 3, 3)
	gbWant := MustNewOf(dt, 4)
	fillRandOf(gwWant, r)
	fillRandOf(gbWant, r)
	gwAcc, gbAcc := gwWant.Clone(), gbWant.Clone()
	if err := gwWant.AddInPlace(gwFresh); err != nil {
		t.Fatal(err)
	}
	if err := gbWant.AddInPlace(gbFresh); err != nil {
		t.Fatal(err)
	}
	gotGx, err := be.Conv2DGradsFused(x, w, gy, 1, 1, ActReLU, gwAcc, gbAcc, ws)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "Conv2DGradsFused gx", gotGx, wantGx)
	bitsEqual(t, "Conv2DGradsFused gw", gwAcc, gwWant)
	bitsEqual(t, "Conv2DGradsFused gb", gbAcc, gbWant)

	// Dense + ReLU forward/backward.
	dw := MustNewOf(dt, 6, 40)
	db := MustNewOf(dt, 6)
	dx := MustNewOf(dt, 40)
	fillRandOf(dw, r)
	fillRandOf(db, r)
	fillRandOf(dx, r)
	dws := &Workspace{}
	dplain, err := be.DenseForward(dw, db, dx)
	if err != nil {
		t.Fatal(err)
	}
	dWant, dMask := reluRef(dplain)
	dFused, err := be.DenseForwardFused(dw, db, dx, ActReLU, dws)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "DenseForwardFused(ReLU)", dFused, dWant)

	dgy := MustNewOf(dt, 6)
	fillRandOf(dgy, r)
	dgm := maskGrad(dgy, dMask)
	gwA := MustNewOf(dt, 6, 40)
	gbA := MustNewOf(dt, 6)
	fillRandOf(gwA, r)
	fillRandOf(gbA, r)
	gwB, gbB := gwA.Clone(), gbA.Clone()
	wantDgx, err := be.DenseBackward(dw, dx, dgm, gwA, gbA)
	if err != nil {
		t.Fatal(err)
	}
	gotDgx, err := be.DenseBackwardFused(dw, dx, dgy, ActReLU, gwB, gbB, dws)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "DenseBackwardFused gx", gotDgx, wantDgx)
	bitsEqual(t, "DenseBackwardFused gw", gwB, gwA)
	bitsEqual(t, "DenseBackwardFused gb", gbB, gbA)

	// MaxPool + grad via workspace.
	px := MustNewOf(dt, 3, 12, 12)
	fillRandOf(px, r)
	pws := &Workspace{}
	pWant, argWant, err := be.MaxPool2D(px, 2)
	if err != nil {
		t.Fatal(err)
	}
	pGot, argGot, err := be.MaxPool2DWS(px, 2, pws)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "MaxPool2DWS out", pGot, pWant)
	for i, a := range argWant {
		if argGot[i] != a {
			t.Fatalf("MaxPool2DWS arg[%d] = %d, want %d", i, argGot[i], a)
		}
	}
	pgy := MustNewOf(dt, 3, 6, 6)
	fillRandOf(pgy, r)
	gWant, err := be.MaxPool2DGrad(pgy, argWant, []int{3, 12, 12})
	if err != nil {
		t.Fatal(err)
	}
	gGot, err := be.MaxPool2DGradWS(pgy, argGot, []int{3, 12, 12}, pws)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "MaxPool2DGradWS", gGot, gWant)

	// Standalone ReLU via workspace.
	rws := &Workspace{}
	rIn := MustNewOf(dt, 5, 7)
	fillRandOf(rIn, r)
	rWant, rMask := reluRef(rIn)
	rGot, err := be.ReLUFwd(rIn, rws)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "ReLUFwd", rGot, rWant)
	rgy := MustNewOf(dt, 5, 7)
	fillRandOf(rgy, r)
	rgWant := maskGrad(rgy, rMask)
	rgGot, err := be.ReLUBwd(rgy, rws)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "ReLUBwd", rgGot, rgWant)
}

// aliasBackend constructs a backend by one of the former parallel names.
func aliasBackend(t *testing.T, name string, workers int) Backend {
	t.Helper()
	be, err := NewBackend(name, workers)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

func TestFusedKernelsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		be   Backend
		dt   DType
	}{
		{"serial", Serial{}, F64},
		{"parallel", aliasBackend(t, "parallel", 4), F64},
		{"serial32", NewSerial32(), F32},
		{"parallel32", aliasBackend(t, "parallel32", 4), F32},
	} {
		t.Run(tc.name, func(t *testing.T) { fusedVsComposed(t, tc.be, tc.dt) })
	}
}

// TestFloat32SerialParallelBitIdentical pins the float32 alias: what
// "parallel32" constructs, at any worker count, produces the bits of
// serial32 on the same inputs — the float32 counterpart of the float64
// parity tests in backend_test.go.
func TestFloat32SerialParallelBitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 8} {
		float32AliasParity(t, NewSerial32(), aliasBackend(t, "parallel32", n))
	}
}

func float32AliasParity(t *testing.T, s, p Backend) {
	t.Helper()
	r1 := NewRNG(7)
	r2 := NewRNG(7)

	mk := func(r *RNG, shape ...int) *Tensor {
		x := MustNewOf(F32, shape...)
		x.FillNormal(r, 1)
		return x
	}

	// Large matmul.
	a1, b1 := mk(r1, 64, 48), mk(r1, 48, 64)
	a2, b2 := mk(r2, 64, 48), mk(r2, 48, 64)
	cs, err := s.MatMul(a1, b1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := p.MatMul(a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "MatMul32", cp, cs)

	// Large fused conv forward + backward.
	x1, w1, bb1 := mk(r1, 3, 28, 28), mk(r1, 8, 3, 3, 3), mk(r1, 8)
	x2, w2, bb2 := mk(r2, 3, 28, 28), mk(r2, 8, 3, 3, 3), mk(r2, 8)
	ws1, ws2 := &Workspace{}, &Workspace{}
	o1, err := s.Conv2DFused(x1, w1, bb1, 1, 1, ActReLU, ws1)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := p.Conv2DFused(x2, w2, bb2, 1, 1, ActReLU, ws2)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "Conv2DFused32", o2, o1)

	gy1, gy2 := mk(r1, 8, 28, 28), mk(r2, 8, 28, 28)
	gw1, gb1 := MustNewOf(F32, 8, 3, 3, 3), MustNewOf(F32, 8)
	gw2, gb2 := MustNewOf(F32, 8, 3, 3, 3), MustNewOf(F32, 8)
	gx1, err := s.Conv2DGradsFused(x1, w1, gy1, 1, 1, ActReLU, gw1, gb1, ws1)
	if err != nil {
		t.Fatal(err)
	}
	gx2, err := p.Conv2DGradsFused(x2, w2, gy2, 1, 1, ActReLU, gw2, gb2, ws2)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "Conv2DGradsFused32 gx", gx2, gx1)
	bitsEqual(t, "Conv2DGradsFused32 gw", gw2, gw1)
	bitsEqual(t, "Conv2DGradsFused32 gb", gb2, gb1)
}

// TestFloat32MatchesFloat64WithinTolerance sanity-checks that the float32
// engine computes the same mathematics as the float64 reference (loose
// tolerance — float32 rounding accumulates).
func TestFloat32MatchesFloat64WithinTolerance(t *testing.T) {
	r := NewRNG(11)
	a64 := MustNew(16, 12)
	b64 := MustNew(12, 16)
	a64.FillNormal(r, 1)
	b64.FillNormal(r, 1)
	a32 := MustNewOf(F32, 16, 12)
	b32 := MustNewOf(F32, 12, 16)
	if err := a32.CopyFrom(a64); err != nil {
		t.Fatal(err)
	}
	if err := b32.CopyFrom(b64); err != nil {
		t.Fatal(err)
	}
	c64, err := Serial{}.MatMul(a64, b64)
	if err != nil {
		t.Fatal(err)
	}
	c32, err := NewSerial32().MatMul(a32, b32)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(c64, c32, 1e-4) {
		t.Fatal("float32 matmul deviates beyond tolerance from float64")
	}
}

// TestWorkspaceSteadyStateZeroAlloc pins the zero-allocation contract of
// the fused/workspace path: after a warm-up call, repeated fused
// forward/backward steps allocate nothing — the engine's scratch stock
// included, which the backward draws on once a call. The layers are
// MNISTSmall's two convolutions, the first with its input gradient waived,
// run the way a training step runs them: their backward calls ask the stock
// for different sizes in turn, and it must settle on the larger.
func TestWorkspaceSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		be   Backend
		dt   DType
	}{
		{"serial", Serial{}, F64},
		{"serial32", NewSerial32(), F32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if race.Enabled {
				t.Skip("sync.Pool drops a quarter of its puts under the race detector")
			}
			r := NewRNG(3)
			type layer struct {
				x, w, b, gy, gw, gb *Tensor
				ws                  Workspace
			}
			mk := func(cIn, hw, f int, first bool) *layer {
				l := &layer{
					x: MustNewOf(tc.dt, cIn, hw, hw), w: MustNewOf(tc.dt, f, cIn, 3, 3), b: MustNewOf(tc.dt, f),
					gy: MustNewOf(tc.dt, f, hw, hw), gw: MustNewOf(tc.dt, f, cIn, 3, 3), gb: MustNewOf(tc.dt, f),
				}
				for _, ten := range []*Tensor{l.x, l.w, l.b, l.gy} {
					fillRandOf(ten, r)
				}
				l.ws.NoInputGrad = first
				return l
			}
			layers := []*layer{mk(1, 14, 6, true), mk(6, 7, 12, false)}
			step := func() {
				for _, l := range layers {
					if _, err := tc.be.Conv2DFused(l.x, l.w, l.b, 1, 1, ActReLU, &l.ws); err != nil {
						t.Fatal(err)
					}
				}
				for i := len(layers) - 1; i >= 0; i-- {
					l := layers[i]
					if _, err := tc.be.Conv2DGradsFused(l.x, l.w, l.gy, 1, 1, ActReLU, l.gw, l.gb, &l.ws); err != nil {
						t.Fatal(err)
					}
				}
			}
			step() // warm-up sizes the workspaces and the scratch stock
			if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
				t.Fatalf("fused steady state allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

func TestEngineDTypeMismatch(t *testing.T) {
	x64 := MustNew(4, 4)
	y64 := MustNew(4, 4)
	if _, err := NewSerial32().MatMul(x64, y64); !errors.Is(err, ErrDTypeMismatch) {
		t.Fatalf("serial32 on float64 tensors: err = %v, want ErrDTypeMismatch", err)
	}
	x32 := MustNewOf(F32, 4, 4)
	if err := x64.AddInPlace(x32); !errors.Is(err, ErrDTypeMismatch) {
		t.Fatalf("AddInPlace across dtypes: err = %v, want ErrDTypeMismatch", err)
	}
}
