package similarity

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"aergia/internal/tensor"
)

func TestNormalize(t *testing.T) {
	p := Normalize([]int{1, 3})
	if p[0] != 0.25 || p[1] != 0.75 {
		t.Fatalf("Normalize = %v", p)
	}
	u := Normalize([]int{0, 0, 0, 0})
	for _, v := range u {
		if v != 0.25 {
			t.Fatalf("zero histogram normalized to %v, want uniform", u)
		}
	}
}

func TestEMDIdentical(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	d, err := EMD(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("EMD(p,p) = %v, want 0", d)
	}
}

func TestEMDKnownValues(t *testing.T) {
	tests := []struct {
		name string
		p, q []float64
		want float64
	}{
		{"adjacent mass", []float64{1, 0}, []float64{0, 1}, 1},
		{"two-step move", []float64{1, 0, 0}, []float64{0, 0, 1}, 2},
		{"half move", []float64{0.5, 0.5}, []float64{0, 1}, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := EMD(tt.p, tt.q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(d-tt.want) > 1e-12 {
				t.Fatalf("EMD = %v, want %v", d, tt.want)
			}
		})
	}
}

func TestEMDMismatch(t *testing.T) {
	if _, err := EMD([]float64{1}, []float64{0.5, 0.5}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	if _, err := EMDCounts([]int{1}, []int{1, 1}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
}

func TestMatrixSymmetricZeroDiagonal(t *testing.T) {
	dists := [][]int{
		{10, 0, 0},
		{0, 10, 0},
		{5, 5, 0},
		{10, 0, 0},
	}
	m, err := NewMatrix(dists)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 4 {
		t.Fatalf("size = %d", m.Size())
	}
	for i := 0; i < 4; i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("diagonal At(%d,%d) = %v", i, i, m.At(i, i))
		}
		for j := 0; j < 4; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Identical distributions (0 and 3) must have distance 0.
	if m.At(0, 3) != 0 {
		t.Fatalf("identical clients distance = %v", m.At(0, 3))
	}
	// Client 2 is closer to client 0 than client 1 is (shares half its mass).
	if m.At(0, 2) >= m.At(0, 1) {
		t.Fatalf("expected At(0,2)=%v < At(0,1)=%v", m.At(0, 2), m.At(0, 1))
	}
}

// Property: EMD is a metric on random histograms — non-negative, symmetric,
// and satisfies the triangle inequality.
func TestQuickEMDMetricProperties(t *testing.T) {
	rng := tensor.NewRNG(17)
	randDist := func(n int) []float64 {
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(20)
		}
		return Normalize(counts)
	}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		p, q, r := randDist(n), randDist(n), randDist(n)
		dpq, _ := EMD(p, q)
		dqp, _ := EMD(q, p)
		dpr, _ := EMD(p, r)
		drq, _ := EMD(r, q)
		if dpq < 0 {
			t.Fatalf("negative EMD %v", dpq)
		}
		if math.Abs(dpq-dqp) > 1e-12 {
			t.Fatalf("asymmetric EMD %v vs %v", dpq, dqp)
		}
		if dpq > dpr+drq+1e-12 {
			t.Fatalf("triangle violated: d(p,q)=%v > d(p,r)+d(r,q)=%v", dpq, dpr+drq)
		}
	}
}

// Property: EMD of count histograms is scale-invariant.
func TestQuickEMDScaleInvariant(t *testing.T) {
	f := func(a, b [5]uint8, scale uint8) bool {
		s := int(scale%7) + 2
		av, bv := make([]int, 5), make([]int, 5)
		avs, bvs := make([]int, 5), make([]int, 5)
		for i := 0; i < 5; i++ {
			av[i], bv[i] = int(a[i]), int(b[i])
			avs[i], bvs[i] = s*int(a[i]), s*int(b[i])
		}
		d1, err1 := EMDCounts(av, bv)
		d2, err2 := EMDCounts(avs, bvs)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// EMDCounts normalizes two count histograms and returns their EMD.
func EMDCounts(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrMismatch, len(a), len(b))
	}
	return EMD(Normalize(a), Normalize(b))
}
