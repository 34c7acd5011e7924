package fl

import (
	"testing"

	"aergia/internal/dataset"
	"aergia/internal/nn"
	"aergia/internal/tensor"
)

// BenchmarkClientRound measures one client's local training round (the unit
// of work the simulator charges to virtual time) per backend: load the
// global weights, then run E epochs of mini-batch SGD over the shard. Run
// with -benchmem to track the allocation trajectory of the backends.
func BenchmarkClientRound(b *testing.B) {
	const (
		shardSamples = 40
		batchSize    = 8
		epochs       = 2
	)
	train, err := dataset.Generate(dataset.Config{
		Kind: dataset.MNIST, N: shardSamples, Seed: 7, Small: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	xs, ys, err := train.Batches(batchSize)
	if err != nil {
		b.Fatal(err)
	}
	for _, bb := range []struct {
		name string
		be   tensor.Backend
	}{
		{"serial", tensor.Serial{}},
		{"serial32", tensor.NewSerial32()},
	} {
		b.Run(bb.name, func(b *testing.B) {
			net, err := nn.BuildWith(nn.ArchMNISTSmall, 1, bb.be)
			if err != nil {
				b.Fatal(err)
			}
			global := net.SnapshotWeights().Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := net.LoadWeights(global); err != nil {
					b.Fatal(err)
				}
				opt := nn.NewSGD(0.05)
				opt.Backend = bb.be
				for e := 0; e < epochs; e++ {
					for bi := range xs {
						if _, err := net.TrainBatch(xs[bi], ys[bi], opt); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
