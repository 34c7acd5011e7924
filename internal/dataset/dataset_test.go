package dataset

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"aergia/internal/tensor"
)

func TestGenerateShapesAndBalance(t *testing.T) {
	tests := []struct {
		kind    Kind
		classes int
		shape   []int
	}{
		{MNIST, 10, []int{1, 28, 28}},
		{FMNIST, 10, []int{1, 28, 28}},
		{Cifar10, 10, []int{3, 32, 32}},
		{Cifar100, 100, []int{3, 32, 32}},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			n := tt.classes * 10
			ds, err := Generate(Config{Kind: tt.kind, N: n, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if ds.Len() != n {
				t.Fatalf("len = %d, want %d", ds.Len(), n)
			}
			for i, d := range ds.Shape {
				if d != tt.shape[i] {
					t.Fatalf("shape = %v, want %v", ds.Shape, tt.shape)
				}
			}
			counts := ds.ClassDistribution()
			for c, cnt := range counts {
				if cnt != 10 {
					t.Fatalf("class %d count = %d, want 10 (balanced)", c, cnt)
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Kind: MNIST, N: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Kind: MNIST, N: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i].Y != b.Samples[i].Y {
			t.Fatal("labels differ between same-seed generations")
		}
		if !tensor.Equal(a.Samples[i].X, b.Samples[i].X, 0) {
			t.Fatal("images differ between same-seed generations")
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(Config{Kind: MNIST, N: 10, Seed: 1})
	b, _ := Generate(Config{Kind: MNIST, N: 10, Seed: 2})
	same := true
	for i := range a.Samples {
		if !tensor.Equal(a.Samples[i].X, b.Samples[i].X, 0) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{Kind: MNIST, N: 0, Seed: 1}); err == nil {
		t.Fatal("expected error for N=0")
	}
	if _, err := Generate(Config{Kind: Kind(0), N: 10, Seed: 1}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestPartitionIIDDisjointAndBalanced(t *testing.T) {
	ds, _ := Generate(Config{Kind: MNIST, N: 400, Seed: 3})
	rng := tensor.NewRNG(9)
	parts, err := PartitionIID(ds, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 8 {
		t.Fatalf("parts = %d", len(parts))
	}
	seen := make(map[*tensor.Tensor]bool)
	for _, p := range parts {
		if p.Len() != 50 {
			t.Fatalf("shard size = %d, want 50", p.Len())
		}
		for _, s := range p.Samples {
			if seen[s.X] {
				t.Fatal("shards are not disjoint")
			}
			seen[s.X] = true
		}
		// IID shards should contain most classes.
		counts := p.ClassDistribution()
		present := 0
		for _, c := range counts {
			if c > 0 {
				present++
			}
		}
		if present < 7 {
			t.Fatalf("IID shard has only %d classes", present)
		}
	}
}

func TestPartitionNonIIDClassLimit(t *testing.T) {
	ds, _ := Generate(Config{Kind: MNIST, N: 1000, Seed: 4})
	rng := tensor.NewRNG(10)
	for _, cpc := range []int{2, 3, 5, 10} {
		parts, err := PartitionNonIID(ds, 6, cpc, rng)
		if err != nil {
			t.Fatalf("cpc=%d: %v", cpc, err)
		}
		for ci, p := range parts {
			counts := p.ClassDistribution()
			present := 0
			for _, c := range counts {
				if c > 0 {
					present++
				}
			}
			if present > cpc {
				t.Fatalf("cpc=%d client %d holds %d classes", cpc, ci, present)
			}
			if p.Len() == 0 {
				t.Fatalf("cpc=%d client %d is empty", cpc, ci)
			}
		}
	}
}

func TestPartitionNonIIDDisjoint(t *testing.T) {
	ds, _ := Generate(Config{Kind: MNIST, N: 600, Seed: 5})
	rng := tensor.NewRNG(11)
	parts, err := PartitionNonIID(ds, 5, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*tensor.Tensor]bool)
	total := 0
	for _, p := range parts {
		total += p.Len()
		for _, s := range p.Samples {
			if seen[s.X] {
				t.Fatal("non-IID shards are not disjoint")
			}
			seen[s.X] = true
		}
	}
	if total > ds.Len() {
		t.Fatalf("shards cover %d of %d samples", total, ds.Len())
	}
}

func TestPartitionErrors(t *testing.T) {
	ds, _ := Generate(Config{Kind: MNIST, N: 20, Seed: 6})
	rng := tensor.NewRNG(12)
	if _, err := PartitionIID(ds, 0, rng); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := PartitionIID(ds, 100, rng); err == nil {
		t.Fatal("expected error for k > samples")
	}
	if _, err := PartitionNonIID(ds, 4, 0, rng); err == nil {
		t.Fatal("expected error for classesPerClient=0")
	}
	if _, err := PartitionNonIID(ds, 4, 11, rng); err == nil {
		t.Fatal("expected error for classesPerClient > classes")
	}
}

func TestBatches(t *testing.T) {
	ds, _ := Generate(Config{Kind: MNIST, N: 25, Seed: 8})
	xss, yss, err := ds.Batches(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(xss) != 3 || len(yss) != 3 {
		t.Fatalf("batches = %d, want 3", len(xss))
	}
	if len(xss[2]) != 5 {
		t.Fatalf("last batch size = %d, want 5", len(xss[2]))
	}
	if _, _, err := ds.Batches(0); err == nil {
		t.Fatal("expected error for batch size 0")
	}
	empty := &Dataset{Kind: MNIST, Classes: 10, Shape: ds.Shape}
	if _, _, err := empty.Batches(4); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestSubset(t *testing.T) {
	ds, _ := Generate(Config{Kind: MNIST, N: 10, Seed: 9})
	sub := ds.Subset([]int{0, 2, 4})
	if sub.Len() != 3 {
		t.Fatalf("subset len = %d", sub.Len())
	}
	if sub.Samples[1].X != ds.Samples[2].X {
		t.Fatal("subset does not reference original samples")
	}
}

// TestClassesAreLearnable verifies the synthetic task is actually solvable:
// a nearest-prototype classifier on raw pixels should beat chance by a wide
// margin, which is the property the CNN experiments rely on.
func TestClassesAreLearnable(t *testing.T) {
	train, _ := Generate(Config{Kind: MNIST, N: 200, Seed: 10})
	test, _ := Generate(Config{Kind: MNIST, N: 100, Seed: 10})
	// Build per-class mean images from train.
	means := make([]*tensor.Tensor, 10)
	counts := make([]int, 10)
	for _, s := range train.Samples {
		if means[s.Y] == nil {
			means[s.Y] = tensor.MustNew(s.X.Shape()...)
		}
		if err := means[s.Y].AddInPlace(s.X); err != nil {
			t.Fatal(err)
		}
		counts[s.Y]++
	}
	for c := range means {
		means[c].ScaleInPlace(1 / float64(counts[c]))
	}
	correct := 0
	for _, s := range test.Samples {
		best, bestDist := -1, 0.0
		for c, m := range means {
			diff, err := tensor.Sub(s.X, m)
			if err != nil {
				t.Fatal(err)
			}
			d := diff.Norm2()
			if best == -1 || d < bestDist {
				best, bestDist = c, d
			}
		}
		if best == s.Y {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-prototype accuracy = %v, want >= 0.5 (chance is 0.1)", acc)
	}
}

// TestSourceGenerateMatchesGenerate: a dataset drawn from a kept Source is the
// one Generate builds from scratch, sample for sample and bit for bit, for
// every kind, both image sizes, and the three variants the topologies use
// (train 0, test 1, a lazy client's 2+id) — and no sample aliases a
// prototype, so a caller that edits its shard cannot move the next draw.
func TestSourceGenerateMatchesGenerate(t *testing.T) {
	for _, kind := range []Kind{MNIST, FMNIST, Cifar10, Cifar100} {
		for _, small := range []bool{true, false} {
			src, err := NewSource(kind, 11, small, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			other, err := NewSource(kind, 11, small, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			protoStorage := map[*float64]bool{}
			for _, s := range []*Source{src, other} {
				for _, p := range s.protos {
					protoStorage[&p.Data()[0]] = true
				}
			}
			n := kind.Classes() + 3
			for _, variant := range []uint64{0, 1, 2 + 37} {
				want, err := Generate(Config{Kind: kind, N: n, Seed: 11, Small: small, NoiseStd: 0.5, Variant: variant})
				if err != nil {
					t.Fatal(err)
				}
				got, err := src.Generate(n, variant)
				if err != nil {
					t.Fatal(err)
				}
				if got.Kind != want.Kind || got.Classes != want.Classes || len(got.Shape) != len(want.Shape) || got.Len() != want.Len() {
					t.Fatalf("%v small=%v variant %d: header %+v, want %+v", kind, small, variant, got, want)
				}
				for i, s := range got.Samples {
					w := want.Samples[i]
					if s.Y != w.Y || !s.X.SameShape(w.X) {
						t.Fatalf("%v small=%v variant %d: sample %d is class %d shape %v, want %d %v",
							kind, small, variant, i, s.Y, s.X.Shape(), w.Y, w.X.Shape())
					}
					for j, v := range s.X.Data() {
						if math.Float64bits(v) != math.Float64bits(w.X.Data()[j]) {
							t.Fatalf("%v small=%v variant %d: sample %d pixel %d = %v, want %v",
								kind, small, variant, i, j, v, w.X.Data()[j])
						}
					}
					if protoStorage[&s.X.Data()[0]] {
						t.Fatalf("%v small=%v variant %d: sample %d shares a prototype's storage", kind, small, variant, i)
					}
					s.X.Fill(math.NaN()) // a caller scribbling on its shard
				}
			}
			// The scribbles above reached no prototype.
			again, err := src.Generate(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := other.Generate(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range again.Samples {
				if !tensor.Equal(s.X, fresh.Samples[i].X, 0) {
					t.Fatalf("%v small=%v: sample %d of a second draw differs between two sources", kind, small, i)
				}
			}
		}
	}
}

// TestSourceGenerateComputesNoPrototypes counts instead of timing: a draw
// from a kept Source allocates less than Generate by at least the storage of
// the class prototypes Generate has to compute first.
func TestSourceGenerateComputesNoPrototypes(t *testing.T) {
	const n = 8
	src, err := NewSource(MNIST, 3, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	bytesOf := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	kept := bytesOf(func() {
		if _, err := src.Generate(n, 2); err != nil {
			t.Error(err)
		}
	})
	scratch := bytesOf(func() {
		if _, err := Generate(Config{Kind: MNIST, N: n, Seed: 3, Small: true, Variant: 2}); err != nil {
			t.Error(err)
		}
	})
	protoBytes := uint64(MNIST.Classes() * 14 * 14 * 8)
	if scratch < kept+protoBytes {
		t.Fatalf("Generate allocated %d B, a kept Source %d B: less than the %d B of prototypes apart", scratch, kept, protoBytes)
	}
	// 8 samples of 196 float64 plus headers, the label/permutation slices.
	if kept > 16<<10 {
		t.Fatalf("a kept Source allocated %d B for %d small MNIST samples", kept, n)
	}
}

// TestGenerateIntoRecycledStorage: a draw into storage a caller recycled —
// tensors of an earlier draw, scribbled with NaN — is Generate's draw bit for
// bit, for every kind at both image sizes, and its samples are the supplied
// tensors; a slot left nil gets a fresh one. A tensor of another shape is
// refused.
func TestGenerateIntoRecycledStorage(t *testing.T) {
	for _, kind := range []Kind{MNIST, FMNIST, Cifar10, Cifar100} {
		for _, small := range []bool{true, false} {
			src, err := NewSource(kind, 5, small, 0)
			if err != nil {
				t.Fatal(err)
			}
			n := kind.Classes() + 3
			want, err := src.Generate(n, 2+9)
			if err != nil {
				t.Fatal(err)
			}
			old, err := src.Generate(n, 2+4)
			if err != nil {
				t.Fatal(err)
			}
			xs := make([]*tensor.Tensor, n)
			supplied := map[*tensor.Tensor]bool{}
			for i := 0; i < n-2; i++ { // the last two slots stay nil
				xs[i] = old.Samples[i].X
				xs[i].Fill(math.NaN())
				supplied[xs[i]] = true
			}
			got, err := src.GenerateInto(xs, 2+9)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != want.Kind || got.Classes != want.Classes || got.Len() != n {
				t.Fatalf("%v small=%v: header %+v, want %+v", kind, small, got, want)
			}
			reused := 0
			for i, s := range got.Samples {
				w := want.Samples[i]
				if s.Y != w.Y || !s.X.SameShape(w.X) {
					t.Fatalf("%v small=%v: sample %d is class %d shape %v, want %d %v",
						kind, small, i, s.Y, s.X.Shape(), w.Y, w.X.Shape())
				}
				for j, v := range s.X.Data() {
					if math.Float64bits(v) != math.Float64bits(w.X.Data()[j]) {
						t.Fatalf("%v small=%v: sample %d pixel %d = %v, want %v", kind, small, i, j, v, w.X.Data()[j])
					}
				}
				if supplied[s.X] {
					reused++
				}
			}
			if reused != n-2 {
				t.Fatalf("%v small=%v: %d of %d supplied tensors hold samples", kind, small, reused, n-2)
			}
		}
	}
	src, err := NewSource(MNIST, 5, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.GenerateInto([]*tensor.Tensor{tensor.MustNew(1, 28, 28)}, 2); err == nil {
		t.Fatal("a full-size tensor was accepted for a small-image source")
	}
	if _, err := src.GenerateInto(nil, 2); err == nil {
		t.Fatal("an empty draw was accepted")
	}
}
