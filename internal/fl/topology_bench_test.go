package fl

import (
	"testing"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/dataset"
	"aergia/internal/nn"
	"aergia/internal/tensor"
)

// BenchmarkTopologyRun measures a small end-to-end synchronous run through
// the Topology/Deployment path on the sim transport — the engine-level unit
// the experiment suite and the job runner schedule. Build cost (dataset
// generation, partitioning, actor init) is included on purpose: it is part
// of every scheduled scenario. serial vs. serial32 shows how much of a whole
// run the element type moves (client math dominates); the same sub-benchmark
// at -cpu 1,2 shows what the compute lanes add.
func BenchmarkTopologyRun(b *testing.B) {
	// churn10 layers a 10%-churn fault plan (with rejoins and quorum) over
	// the serial run; the delta against "serial" is the whole fault
	// subsystem's overhead — plan expansion, the transport wrapper's
	// per-message and per-timer bookkeeping, and the federator's liveness
	// tracking. CI publishes both as BENCH_chaos.json.
	churn := chaos.Plan{
		Churn:  0.1,
		Rejoin: 1,
		Window: 500 * time.Millisecond,
		Down:   200 * time.Millisecond,
		Quorum: 0.5,
	}
	// The codec-* variants layer a wire codec over the serial run; the
	// delta against "serial" is the whole codec subsystem's CPU overhead —
	// delta computation, encode/decode, residual bookkeeping — which buys
	// the wire-byte reduction BENCH_codec.json tracks in CI. aergia is the
	// paper's strategy at the tests' size (8 clients, 2 epochs, 320
	// samples): profiling windows, offload pairs, helper jobs and the
	// boundary chain, so -cpu 1,2 shows what the lanes give an Aergia run.
	for _, bb := range []struct {
		name      string
		be        tensor.Backend
		plan      chaos.Plan
		wireCodec string
		aergia    bool
	}{
		{"serial", nil, chaos.Plan{}, "", false},
		{"serial32", tensor.NewSerial32(), chaos.Plan{}, "", false},
		{"serial-churn10", nil, churn, "", false},
		{"codec-q8", nil, chaos.Plan{}, "q8", false},
		{"codec-topk", nil, chaos.Plan{}, "topk", false},
		{"aergia", nil, chaos.Plan{}, "", true},
	} {
		b.Run(bb.name, func(b *testing.B) {
			top := Topology{
				Strategy:     NewFedAvg(0),
				Arch:         nn.ArchMNISTSmall,
				Dataset:      dataset.MNIST,
				SmallImages:  true,
				Clients:      4,
				Rounds:       2,
				LocalEpochs:  1,
				BatchSize:    8,
				TrainSamples: 80,
				TestSamples:  40,
				EvalEvery:    1,
				Seed:         7,
				Backend:      bb.be,
				Chaos:        bb.plan,
				Codec:        bb.wireCodec,
			}
			if bb.aergia {
				top.Strategy = NewAergia(0, 1)
				top.Clients, top.LocalEpochs, top.TrainSamples = 8, 2, 320
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl, err := top.Build()
				if err != nil {
					b.Fatal(err)
				}
				transport, err := NewTransport(TransportSim, nil)
				if err != nil {
					b.Fatal(err)
				}
				wrapped := chaos.Wrap(transport, cl.Topology.Chaos, cl.Topology.Seed)
				if _, err := (&Deployment{Cluster: cl, Transport: wrapped}).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
