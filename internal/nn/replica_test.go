package nn

import (
	"math"
	"testing"

	"aergia/internal/tensor"
)

var allArchs = []Arch{
	ArchMNISTCNN, ArchFMNISTCNN, ArchCifar10CNN, ArchCifar10ResNet, ArchCifar100VGG,
	ArchCifar100ResNet, ArchMNISTSmall, ArchFMNISTSmall, ArchCifar10Small,
}

// TestReplicaTrainsLikeBuildWith is the licence for fl to lease blank
// replicas: once LoadWeights has run, a Replica is the network BuildWith(…, 1,
// be) gives — three training steps from the same weights on the same batches
// leave the same bits — for every architecture on both element types. And
// its parameters are born in the backend's dtype: SetBackend converts nothing.
func TestReplicaTrainsLikeBuildWith(t *testing.T) {
	for _, name := range []string{"serial", "serial32"} {
		be, err := tensor.NewBackend(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range allArchs {
			seeded, err := Build(arch, 5)
			if err != nil {
				t.Fatal(err)
			}
			w := seeded.SnapshotWeights()
			rng := tensor.NewRNG(9)
			xs := make([]*tensor.Tensor, 2)
			ys := make([]int, len(xs))
			for i := range xs {
				xs[i] = tensor.MustNew(arch.InShape()...)
				xs[i].FillNormal(rng, 1)
				ys[i] = (3 + 4*i) % arch.Classes()
			}

			built, err := BuildWith(arch, 1, be)
			if err != nil {
				t.Fatal(err)
			}
			replica, err := Replica(arch, be)
			if err != nil {
				t.Fatal(err)
			}
			storage := map[*tensor.Tensor]any{}
			for _, l := range append(append([]Layer(nil), replica.Features...), replica.Classifier...) {
				for _, p := range append(l.Params(), l.Grads()...) {
					if p.DType() != be.DType() {
						t.Fatalf("%v on %s: %s has a %v tensor", arch, name, l.Name(), p.DType())
					}
					storage[p] = storageOf(p)
				}
			}
			replica.SetBackend(be)
			for p, was := range storage {
				if storageOf(p) != was {
					t.Fatalf("%v on %s: SetBackend on a Replica reallocated a parameter", arch, name)
				}
			}
			if got := replica.SnapshotWeights(); got.Len() != w.Len() {
				t.Fatalf("%v on %s: replica holds %d parameters, want %d", arch, name, got.Len(), w.Len())
			} else {
				for _, v := range append(got.Feature, got.Classifier...) {
					if v != 0 {
						t.Fatalf("%v on %s: a blank replica holds %v", arch, name, v)
					}
				}
			}

			var out [2]Weights
			for i, net := range []*Network{built, replica} {
				if err := net.LoadWeights(w); err != nil {
					t.Fatal(err)
				}
				opt := NewSGD(0.05)
				opt.Backend = be
				for step := 0; step < 3; step++ {
					if _, err := net.TrainBatch(xs, ys, opt); err != nil {
						t.Fatalf("%v on %s: %v", arch, name, err)
					}
				}
				out[i] = net.SnapshotWeights()
			}
			want, got := append(out[0].Feature, out[0].Classifier...), append(out[1].Feature, out[1].Classifier...)
			if len(got) != len(want) {
				t.Fatalf("%v on %s: %d parameters on a Replica, %d on BuildWith", arch, name, len(got), len(want))
			}
			for i, v := range want {
				if math.Float64bits(v) != math.Float64bits(got[i]) {
					t.Fatalf("%v on %s: parameter %d is %v on a Replica, %v on BuildWith", arch, name, i, got[i], v)
				}
			}
		}
	}
}

// storageOf identifies the tensor's backing array.
func storageOf(p *tensor.Tensor) any {
	if p.DType() == tensor.F32 {
		return &p.Data32()[0]
	}
	return &p.Data()[0]
}

// TestArchPhaseFLOPs: the per-architecture cost is the cost of any network of
// that architecture.
func TestArchPhaseFLOPs(t *testing.T) {
	for _, arch := range allArchs {
		net, err := Build(arch, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := net.PhaseFLOPs()
		if err != nil {
			t.Fatal(err)
		}
		got, err := arch.PhaseFLOPs()
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got.Total() == 0 {
			t.Fatalf("%v: arch costs %+v, a built network's %+v", arch, got, want)
		}
	}
	if _, err := Arch(0).PhaseFLOPs(); err == nil {
		t.Fatal("unknown architecture has phase costs")
	}
}
