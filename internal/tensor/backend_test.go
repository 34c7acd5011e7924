package tensor

import (
	"fmt"
	"math"
	"testing"
)

// parityBackends returns what the alias "parallel" constructs at the worker
// counts old callers still pass. The parity tests below compare each with
// Serial{} on their inputs: the alias is the float64 engine, bit for bit,
// whatever the count.
func parityBackends() map[string]Backend {
	out := map[string]Backend{}
	for _, n := range []int{0, 1, 8} {
		be, err := NewBackend("parallel", n)
		if err != nil {
			panic(err)
		}
		out[fmt.Sprintf("parallel-%d", n)] = be
	}
	return out
}

// fillRandomWithZeros populates t with normal variates and zeroes a fraction
// of entries so the kernels' zero-skip paths are exercised.
func fillRandomWithZeros(t *Tensor, rng *RNG) {
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
		if rng.Intn(7) == 0 {
			d[i] = 0
		}
	}
}

// assertBitIdentical fails unless a and b match element-wise at the bit
// level (the backend contract is bit-identity, not approximate equality).
func assertBitIdentical(t *testing.T, name string, a, b *Tensor) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("%s: one result nil (%v vs %v)", name, a, b)
		}
		return
	}
	if !a.SameShape(b) {
		t.Fatalf("%s: shape %v vs %v", name, a.Shape(), b.Shape())
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			t.Fatalf("%s: element %d differs: %v (%#x) vs %v (%#x)",
				name, i, ad[i], math.Float64bits(ad[i]), bd[i], math.Float64bits(bd[i]))
		}
	}
}

func TestMatMulBackendParity(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {17, 3, 9}, {8, 8, 8}, {33, 65, 29}, {64, 48, 80},
	}
	rng := NewRNG(11)
	for _, s := range shapes {
		a := MustNew(s.m, s.k)
		b := MustNew(s.k, s.n)
		at := MustNew(s.k, s.m)
		bt := MustNew(s.n, s.k)
		for _, x := range []*Tensor{a, b, at, bt} {
			fillRandomWithZeros(x, rng)
		}
		ref, err := Serial{}.MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		refTA, err := Serial{}.MatMulTransA(at, b)
		if err != nil {
			t.Fatal(err)
		}
		refTB, err := Serial{}.MatMulTransB(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		for name, be := range parityBackends() {
			got, err := be.MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s MatMul %v", name, s), ref, got)
			gotTA, err := be.MatMulTransA(at, b)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s MatMulTransA %v", name, s), refTA, gotTA)
			gotTB, err := be.MatMulTransB(a, bt)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s MatMulTransB %v", name, s), refTB, gotTB)
		}
	}
}

func TestDenseBackendParity(t *testing.T) {
	shapes := []struct{ in, out int }{{1, 1}, {7, 3}, {13, 29}, {128, 10}, {200, 111}}
	rng := NewRNG(13)
	for _, s := range shapes {
		w := MustNew(s.out, s.in)
		bias := MustNew(s.out)
		x := MustNew(s.in)
		gy := MustNew(s.out)
		for _, v := range []*Tensor{w, bias, x, gy} {
			fillRandomWithZeros(v, rng)
		}
		// Pre-seed the gradient accumulators so parity covers accumulation,
		// not just writes into zeroed tensors.
		gwRef := MustNew(s.out, s.in)
		gbRef := MustNew(s.out)
		fillRandomWithZeros(gwRef, NewRNG(99))
		fillRandomWithZeros(gbRef, NewRNG(98))

		yRef, err := Serial{}.DenseForward(w, bias, x)
		if err != nil {
			t.Fatal(err)
		}
		gwS, gbS := gwRef.Clone(), gbRef.Clone()
		gxRef, err := Serial{}.DenseBackward(w, x, gy, gwS, gbS)
		if err != nil {
			t.Fatal(err)
		}
		for name, be := range parityBackends() {
			y, err := be.DenseForward(w, bias, x)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s DenseForward %v", name, s), yRef, y)
			gw, gb := gwRef.Clone(), gbRef.Clone()
			gx, err := be.DenseBackward(w, x, gy, gw, gb)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s dense gx %v", name, s), gxRef, gx)
			assertBitIdentical(t, fmt.Sprintf("%s dense gw %v", name, s), gwS, gw)
			assertBitIdentical(t, fmt.Sprintf("%s dense gb %v", name, s), gbS, gb)
		}
	}
}

func TestConv2DBackendParity(t *testing.T) {
	cases := []struct{ c, h, w, f, k, pad, stride int }{
		{1, 5, 5, 1, 3, 0, 1},
		{1, 7, 9, 4, 3, 1, 1},
		{3, 9, 9, 5, 3, 1, 2},
		{2, 11, 7, 3, 5, 2, 1},
		{4, 14, 14, 8, 3, 1, 1},
		{3, 16, 16, 16, 3, 1, 1},
	}
	rng := NewRNG(17)
	for _, cs := range cases {
		x := MustNew(cs.c, cs.h, cs.w)
		w := MustNew(cs.f, cs.c, cs.k, cs.k)
		bias := MustNew(cs.f)
		fillRandomWithZeros(x, rng)
		fillRandomWithZeros(w, rng)
		fillRandomWithZeros(bias, rng)

		yRef, err := Serial{}.Conv2D(x, w, bias, cs.pad, cs.stride)
		if err != nil {
			t.Fatal(err)
		}
		gy := MustNew(yRef.Shape()...)
		fillRandomWithZeros(gy, rng)
		gxRef, gwRef, gbRef, err := Serial{}.Conv2DGrads(x, w, gy, cs.pad, cs.stride)
		if err != nil {
			t.Fatal(err)
		}
		for name, be := range parityBackends() {
			y, err := be.Conv2D(x, w, bias, cs.pad, cs.stride)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s Conv2D %+v", name, cs), yRef, y)
			// Nil bias must behave identically too.
			ySerialNoBias, err := Serial{}.Conv2D(x, w, nil, cs.pad, cs.stride)
			if err != nil {
				t.Fatal(err)
			}
			yNoBias, err := be.Conv2D(x, w, nil, cs.pad, cs.stride)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s Conv2D nil-bias %+v", name, cs), ySerialNoBias, yNoBias)
			gx, gw, gb, err := be.Conv2DGrads(x, w, gy, cs.pad, cs.stride)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s conv gx %+v", name, cs), gxRef, gx)
			assertBitIdentical(t, fmt.Sprintf("%s conv gw %+v", name, cs), gwRef, gw)
			assertBitIdentical(t, fmt.Sprintf("%s conv gb %+v", name, cs), gbRef, gb)
		}
	}
}

func TestMaxPoolBackendParity(t *testing.T) {
	cases := []struct{ c, h, w, size int }{
		{1, 4, 4, 2}, {3, 6, 6, 2}, {5, 9, 9, 3}, {16, 16, 16, 2},
	}
	rng := NewRNG(19)
	for _, cs := range cases {
		x := MustNew(cs.c, cs.h, cs.w)
		fillRandomWithZeros(x, rng)
		yRef, argRef, err := Serial{}.MaxPool2D(x, cs.size)
		if err != nil {
			t.Fatal(err)
		}
		gy := MustNew(yRef.Shape()...)
		fillRandomWithZeros(gy, rng)
		gxRef, err := Serial{}.MaxPool2DGrad(gy, argRef, x.Shape())
		if err != nil {
			t.Fatal(err)
		}
		for name, be := range parityBackends() {
			y, arg, err := be.MaxPool2D(x, cs.size)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s MaxPool2D %+v", name, cs), yRef, y)
			for i := range argRef {
				if arg[i] != argRef[i] {
					t.Fatalf("%s MaxPool2D %+v: arg %d differs: %d vs %d",
						name, cs, i, argRef[i], arg[i])
				}
			}
			gx, err := be.MaxPool2DGrad(gy, arg, x.Shape())
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s MaxPool2DGrad %+v", name, cs), gxRef, gx)
		}
	}
}

func TestElementwiseBackendParity(t *testing.T) {
	sizes := []int{1, 17, 1000, 20000}
	rng := NewRNG(23)
	for _, n := range sizes {
		x := MustNew(n)
		y := MustNew(n)
		fillRandomWithZeros(x, rng)
		fillRandomWithZeros(y, rng)
		yS := y.Clone()
		Serial{}.Axpy(0.37, x.Data(), yS.Data())
		xS := x.Clone()
		Serial{}.Scale(-1.75, xS.Data())
		for name, be := range parityBackends() {
			yP := y.Clone()
			be.Axpy(0.37, x.Data(), yP.Data())
			assertBitIdentical(t, fmt.Sprintf("%s Axpy n=%d", name, n), yS, yP)
			xP := x.Clone()
			be.Scale(-1.75, xP.Data())
			assertBitIdentical(t, fmt.Sprintf("%s Scale n=%d", name, n), xS, xP)
		}
	}
}

func TestBackendErrorParity(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(4, 5) // inner dims mismatch
	x3 := MustNew(1, 4, 4)
	for name, be := range parityBackends() {
		if _, err := be.MatMul(a, b); err == nil {
			t.Errorf("%s: MatMul accepted mismatched shapes", name)
		}
		if _, err := be.Conv2D(a, b, nil, 0, 1); err == nil {
			t.Errorf("%s: Conv2D accepted 2-D input", name)
		}
		if _, _, err := be.MaxPool2D(x3, 3); err == nil {
			t.Errorf("%s: MaxPool2D accepted non-divisible window", name)
		}
	}
}

func TestNewBackend(t *testing.T) {
	for _, name := range []string{"", "serial"} {
		be, err := NewBackend(name, 0)
		if err != nil || be.Name() != "serial" {
			t.Fatalf("NewBackend(%q) = %v, %v", name, be, err)
		}
	}
	// The aliases construct their serial twins; the count selects nothing.
	for alias, want := range map[string]string{"parallel": "serial", "parallel32": "serial32"} {
		for _, n := range []int{0, 1, 8} {
			be, err := NewBackend(alias, n)
			if err != nil || be.Name() != want || be.Workers() != 1 {
				t.Fatalf("NewBackend(%s,%d) = %v, %v; want %s at width 1", alias, n, be, err, want)
			}
		}
	}
	if be := NewParallel32(4); be.Name() != "serial32" || be.Workers() != 1 {
		t.Fatalf("NewParallel32(4) = %s at width %d", be.Name(), be.Workers())
	}
	if _, err := NewBackend("gpu", 0); err == nil {
		t.Fatal("NewBackend accepted unknown name")
	}
}

// NewParallel32 is NewSerial32 under its former name; the worker count
// selects nothing.
func NewParallel32(int) Backend { return serialRef32 }
