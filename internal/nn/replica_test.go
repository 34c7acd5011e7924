package nn

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"aergia/internal/race"
	"aergia/internal/tensor"
)

var allArchs = []Arch{
	ArchMNISTCNN, ArchFMNISTCNN, ArchCifar10CNN, ArchCifar10ResNet, ArchCifar100VGG,
	ArchCifar100ResNet, ArchMNISTSmall, ArchFMNISTSmall, ArchCifar10Small,
}

// TestSnapshotIntoMatchesSnapshotWeights: a snapshot into a leased vector —
// longer than the section and dirty, or too short — holds SnapshotWeights'
// bits, and one with the room is reused, for every architecture on both
// element types.
func TestSnapshotIntoMatchesSnapshotWeights(t *testing.T) {
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, name := range []string{"serial", "serial32"} {
		be, err := tensor.NewBackend(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range allArchs {
			net, err := BuildWith(arch, 9, be)
			if err != nil {
				t.Fatal(err)
			}
			want := net.SnapshotWeights()
			dirty := Weights{Feature: make([]float64, len(want.Feature)+3), Classifier: make([]float64, 1)}
			for i := range dirty.Feature {
				dirty.Feature[i] = math.NaN()
			}
			got := net.SnapshotInto(dirty)
			if !same(got.Feature, want.Feature) || !same(got.Classifier, want.Classifier) {
				t.Fatalf("%v on %s: SnapshotInto a dirty vector differs from SnapshotWeights", arch, name)
			}
			if &got.Feature[0] != &dirty.Feature[0] {
				t.Fatalf("%v on %s: a vector with room for the feature section was not reused", arch, name)
			}
			if again := net.SnapshotInto(got); &again.Classifier[0] != &got.Classifier[0] {
				t.Fatalf("%v on %s: a vector of the classifier's size was not reused", arch, name)
			}
		}
	}
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
			xs, ys := randomBatch(arch, 2)

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

// randomBatch is n random samples of the architecture's input shape with
// labels spread over its classes.
func randomBatch(arch Arch, n int) ([]*tensor.Tensor, []int) {
	rng := tensor.NewRNG(9)
	xs := make([]*tensor.Tensor, n)
	ys := make([]int, n)
	for i := range xs {
		xs[i] = tensor.MustNew(arch.InShape()...)
		xs[i].FillNormal(rng, 1)
		ys[i] = (3 + 4*i) % arch.Classes()
	}
	return xs, ys
}

// TestTrainBatchSteadyStateAllocs: a training step's kernels allocate
// nothing once the workspaces and the engine's scratch stock are sized —
// forward, backward, the convolution backward's staging included. What a
// TrainBatch does allocate is the 21 short slices Params()/Grads() build
// for the optimizer, the same count as before the convolution backward drew
// on scratch at all; one buffer a step more would show here.
func TestTrainBatchSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	const paramSlices = 21
	xs, ys := randomBatch(ArchMNISTSmall, 8)
	for _, name := range []string{"serial", "serial32"} {
		be, err := tensor.NewBackend(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		net, err := BuildWith(ArchMNISTSmall, 1, be)
		if err != nil {
			t.Fatal(err)
		}
		opt := NewSGD(0.05)
		step := func() {
			if _, err := net.TrainBatch(xs, ys, opt); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs > paramSlices {
			t.Errorf("%s: TrainBatch allocates %.0f times a step, want the %d parameter-list slices and nothing from a kernel",
				name, allocs, paramSlices)
		}
	}
}

// TestReplicaFootprint pins the bytes one more MNISTSmall replica costs a run
// — built blank, loaded, trained for one batch, so every workspace is sized
// — at no more than it cost before the float64 convolution backward moved
// its staging out of the layers: 198 320 B then (each conv layer held a
// weight-gradient staging tensor, and the first an input gradient nobody
// read), 189 960 B now that the staging is one buffer in the engine's
// scratch stock, which a first replica warms here so that the second is
// charged only for what it holds. Per-layer slots for the staged gradient
// and the padded planes would put ≈ 24 kB on every leased network instead,
// which is how a prototype of the sweeps lost sim_aergia's heap_live_mb
// bound.
func TestReplicaFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	const budget = 192000 // measured 189960 B; 198320 B at the parent commit
	xs, ys := randomBatch(ArchMNISTSmall, 8)
	seeded, err := Build(ArchMNISTSmall, 5)
	if err != nil {
		t.Fatal(err)
	}
	global := seeded.SnapshotWeights()
	// No collection inside the window: one would empty the scratch stock
	// and charge its refill to the replica.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	oneMore := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net, err := Replica(ArchMNISTSmall, tensor.Serial{})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.LoadWeights(global); err != nil {
			t.Fatal(err)
		}
		if _, err := net.TrainBatch(xs, ys, NewSGD(0.05)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := oneMore()
	second := oneMore()
	t.Logf("a replica and its first step allocate %d B with the scratch stock cold, %d B with it warm", first, second)
	if second > budget {
		t.Errorf("one more trained replica costs %d B, budget %d", second, budget)
	}
}
