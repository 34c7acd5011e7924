package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadShapes(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
	}{
		{name: "zero dim", shape: []int{0}},
		{name: "negative dim", shape: []int{2, -1}},
		{name: "zero middle", shape: []int{2, 0, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.shape...); !errors.Is(err, ErrBadShape) {
				t.Fatalf("New(%v) err = %v, want ErrBadShape", tt.shape, err)
			}
		})
	}
}

func TestNewZeroFilled(t *testing.T) {
	x := MustNew(2, 3)
	if x.Size() != 6 {
		t.Fatalf("Size = %d, want 6", x.Size())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromSlice(t *testing.T) {
	x, err := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	if got := x.At(0, 0); got != 1 {
		t.Fatalf("At(0,0) = %v, want 1", got)
	}
	if _, err := FromSlice([]float64{1, 2}, 3); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("mismatched FromSlice err = %v, want ErrShapeMismatch", err)
	}
}

func TestFromSliceCopies(t *testing.T) {
	src := []float64{1, 2}
	x, err := FromSlice(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 99
	if x.At(0) != 1 {
		t.Fatal("FromSlice did not copy the input slice")
	}
}

func TestCloneIndependence(t *testing.T) {
	x := MustNew(2, 2)
	x.Set(7, 1, 1)
	y := x.Clone()
	y.Set(9, 1, 1)
	if x.At(1, 1) != 7 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestReshape(t *testing.T) {
	x, _ := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y, err := x.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := y.At(2, 1); got != 6 {
		t.Fatalf("reshaped At(2,1) = %v, want 6", got)
	}
	if _, err := x.Reshape(4, 2); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("bad reshape err = %v, want ErrShapeMismatch", err)
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b, _ := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33, 44}
	for i, v := range sum.Data() {
		if v != want[i] {
			t.Fatalf("Add[%d] = %v, want %v", i, v, want[i])
		}
	}
	diff, err := Sub(b, a)
	if err != nil {
		t.Fatal(err)
	}
	wantD := []float64{9, 18, 27, 36}
	for i, v := range diff.Data() {
		if v != wantD[i] {
			t.Fatalf("Sub[%d] = %v, want %v", i, v, wantD[i])
		}
	}
	s := Scale(0.5, a)
	if s.At(1, 1) != 2 {
		t.Fatalf("Scale At(1,1) = %v, want 2", s.At(1, 1))
	}
}

func TestShapeMismatchErrors(t *testing.T) {
	a := MustNew(2, 2)
	b := MustNew(3)
	if err := a.AddInPlace(b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("AddInPlace err = %v", err)
	}
	if err := a.SubInPlace(b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("SubInPlace err = %v", err)
	}
	if err := a.AxpyInPlace(2, b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("AxpyInPlace err = %v", err)
	}
	if _, err := Dot(a, b); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("Dot err = %v", err)
	}
}

func TestMatMul(t *testing.T) {
	a, _ := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	r := NewRNG(42)
	a := MustNew(4, 5)
	b := MustNew(5, 3)
	a.FillNormal(r, 1)
	b.FillNormal(r, 1)

	direct, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Aᵀ stored as at (5×4): MatMulTransA(at, b) must equal MatMul(a,b).
	at := MustNew(5, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	viaTransA, err := MatMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(direct, viaTransA, 1e-12) {
		t.Fatal("MatMulTransA disagrees with MatMul")
	}
	// Bᵀ stored as bt (3×5): MatMulTransB(a, bt) must equal MatMul(a,b).
	bt := MustNew(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	viaTransB, err := MatMulTransB(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(direct, viaTransB, 1e-12) {
		t.Fatal("MatMulTransB disagrees with MatMul")
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1x1 kernel with weight 1 and zero bias must reproduce the input.
	x, _ := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	w, _ := FromSlice([]float64{1}, 1, 1, 1, 1)
	b := MustNew(1)
	y, err := Conv2D(x, w, b, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(x, y, 0) {
		t.Fatalf("identity conv output %v", y)
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 2x2 averaging-like kernel over a 3x3 input, valid padding.
	x, _ := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	w, _ := FromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	y, err := Conv2D(x, w, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{12, 16, 24, 28}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("conv[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestConv2DPaddingShape(t *testing.T) {
	x := MustNew(2, 8, 8)
	w := MustNew(4, 2, 3, 3)
	y, err := Conv2D(x, w, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := y.Shape()
	if s[0] != 4 || s[1] != 8 || s[2] != 8 {
		t.Fatalf("same-conv shape = %v, want [4 8 8]", s)
	}
}

// TestConv2DGradsNumeric checks analytic conv gradients against central
// finite differences on a small random instance.
func TestConv2DGradsNumeric(t *testing.T) {
	r := NewRNG(7)
	x := MustNew(2, 5, 5)
	w := MustNew(3, 2, 3, 3)
	b := MustNew(3)
	x.FillNormal(r, 1)
	w.FillNormal(r, 0.5)
	b.FillNormal(r, 0.1)
	const pad, stride = 1, 1

	// Loss = sum(conv output); upstream gradient is all ones.
	loss := func() float64 {
		y, err := Conv2D(x, w, b, pad, stride)
		if err != nil {
			t.Fatal(err)
		}
		return y.Sum()
	}
	y, err := Conv2D(x, w, b, pad, stride)
	if err != nil {
		t.Fatal(err)
	}
	gy := MustNew(y.Shape()...)
	gy.Fill(1)
	gx, gw, gb, err := Conv2DGrads(x, w, gy, pad, stride)
	if err != nil {
		t.Fatal(err)
	}

	const eps = 1e-5
	check := func(name string, param, grad *Tensor, probe []int) {
		for _, i := range probe {
			orig := param.Data()[i]
			param.Data()[i] = orig + eps
			up := loss()
			param.Data()[i] = orig - eps
			down := loss()
			param.Data()[i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-grad.Data()[i]) > 1e-6*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d] = %v, numeric %v", name, i, grad.Data()[i], num)
			}
		}
	}
	check("x", x, gx, []int{0, 7, 24, 49})
	check("w", w, gw, []int{0, 5, 17, 53})
	check("b", b, gb, []int{0, 1, 2})
}

func TestMaxPool2DAndGrad(t *testing.T) {
	x, _ := FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 4, 4)
	y, arg, err := MaxPool2D(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 8, 12, 16}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("pool[%d] = %v, want %v", i, v, want[i])
		}
	}
	gy, _ := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	gx, err := MaxPool2DGrad(gy, arg, x.Shape())
	if err != nil {
		t.Fatal(err)
	}
	if gx.Sum() != 10 {
		t.Fatalf("pool grad sum = %v, want 10", gx.Sum())
	}
	// Gradient must land exactly on the argmax positions.
	if gx.At(0, 1, 1) != 1 || gx.At(0, 1, 3) != 2 || gx.At(0, 3, 1) != 3 || gx.At(0, 3, 3) != 4 {
		t.Fatalf("pool grad misrouted: %v", gx.Data())
	}
}

func TestMaxPoolRejectsIndivisible(t *testing.T) {
	x := MustNew(1, 5, 5)
	if _, _, err := MaxPool2D(x, 2); !errors.Is(err, ErrBadShape) {
		t.Fatalf("err = %v, want ErrBadShape", err)
	}
}

func TestMaxIndex(t *testing.T) {
	x, _ := FromSlice([]float64{3, 9, 1, 9, 2}, 5)
	if got := x.MaxIndex(); got != 1 {
		t.Fatalf("MaxIndex = %d, want 1 (first max)", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(124)
	same := true
	a2 := NewRNG(123)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make(map[int]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(2024)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

// Property: addition commutes (testing/quick over random small vectors).
func TestQuickAddCommutes(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		a, _ := FromSlice(xs[:n], n)
		b, _ := FromSlice(ys[:n], n)
		ab, _ := Add(a, b)
		ba, _ := Add(b, a)
		return Equal(ab, ba, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling by a then 1/a round-trips (for safe magnitudes).
func TestQuickScaleRoundTrip(t *testing.T) {
	f := func(xs []float64, scale float64) bool {
		if len(xs) == 0 {
			return true
		}
		if math.Abs(scale) < 1e-3 || math.Abs(scale) > 1e3 || math.IsNaN(scale) {
			return true
		}
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		a, _ := FromSlice(xs, len(xs))
		b := Scale(1/scale, Scale(scale, a))
		return Equal(a, b, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot(a,a) >= 0 and equals Norm2 squared.
func TestQuickDotNormConsistency(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				return true
			}
		}
		a, _ := FromSlice(xs, len(xs))
		d, err := Dot(a, a)
		if err != nil || d < 0 {
			return false
		}
		n := a.Norm2()
		return math.Abs(d-n*n) <= 1e-6*(1+d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) = AB + AC.
func TestQuickMatMulDistributes(t *testing.T) {
	r := NewRNG(31)
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a, b, c := MustNew(m, k), MustNew(k, n), MustNew(k, n)
		a.FillNormal(r, 1)
		b.FillNormal(r, 1)
		c.FillNormal(r, 1)
		bc, _ := Add(b, c)
		left, _ := MatMul(a, bc)
		ab, _ := MatMul(a, b)
		ac, _ := MatMul(a, c)
		right, _ := Add(ab, ac)
		if !Equal(left, right, 1e-9) {
			t.Fatalf("distribution failed at m=%d k=%d n=%d", m, k, n)
		}
	}
}

// TestEqualNaNAndInf: a kernel that emits NaN must fail every Equal-based
// check, whatever the tolerance, the argument order or the dtypes; an
// infinity still equals itself.
func TestEqualNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	one := func(dt DType, v float64) *Tensor {
		x := MustNewOf(dt, 1)
		if dt == F32 {
			x.Data32()[0] = float32(v)
		} else {
			x.Data()[0] = v
		}
		return x
	}
	for _, c := range []struct {
		a, b float64
		want bool
	}{
		{nan, 1, false},
		{nan, nan, false},
		{inf, inf, true},
		{inf, -inf, false},
		{inf, 1, false},
		{1, 1, true},
	} {
		for _, eps := range []float64{0, 1e-4} {
			for _, dts := range [][2]DType{{F64, F64}, {F32, F32}, {F64, F32}, {F32, F64}} {
				a, b := one(dts[0], c.a), one(dts[1], c.b)
				if got := Equal(a, b, eps); got != c.want {
					t.Errorf("Equal(%v %v, %v %v, %g) = %v, want %v", dts[0], c.a, dts[1], c.b, eps, got, c.want)
				}
				if got := Equal(b, a, eps); got != c.want {
					t.Errorf("Equal(%v %v, %v %v, %g) = %v, want %v", dts[1], c.b, dts[0], c.a, eps, got, c.want)
				}
			}
		}
	}
}
