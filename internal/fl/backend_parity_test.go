package fl

import (
	"math"
	"testing"

	"aergia/internal/dataset"
	"aergia/internal/nn"
	"aergia/internal/tensor"
)

// archForParity is the experiment-scale architecture used by the parity
// runs; it contains conv, pooling, and dense layers.
const archForParity = nn.ArchMNISTSmall

// parityConfig is a small but complete experiment: Aergia exercises the
// profiler, signer, enclave, offloading, and recombination paths on top of
// the plain training loop.
func parityConfig(strat Strategy) Config {
	return Config{
		Strategy:     strat,
		Arch:         archForParity,
		Dataset:      dataset.MNIST,
		SmallImages:  true,
		Clients:      5,
		Rounds:       2,
		LocalEpochs:  1,
		BatchSize:    4,
		TrainSamples: 50,
		TestSamples:  40,
		EvalEvery:    1,
		SpeedJitter:  0.15,
		Seed:         7,
	}
}

// assertResultsIdentical requires two runs to agree bit-for-bit on every
// quantity the experiments report.
func assertResultsIdentical(t *testing.T, label string, ref, got *Results) {
	t.Helper()
	if math.Float64bits(ref.FinalAccuracy) != math.Float64bits(got.FinalAccuracy) {
		t.Fatalf("%s: final accuracy %v vs %v", label, ref.FinalAccuracy, got.FinalAccuracy)
	}
	if ref.TotalTime != got.TotalTime {
		t.Fatalf("%s: total time %v vs %v", label, ref.TotalTime, got.TotalTime)
	}
	if len(ref.Rounds) != len(got.Rounds) {
		t.Fatalf("%s: %d rounds vs %d", label, len(ref.Rounds), len(got.Rounds))
	}
	for i := range ref.Rounds {
		r, g := ref.Rounds[i], got.Rounds[i]
		if r.Duration != g.Duration || r.Completed != g.Completed || r.Offloads != g.Offloads ||
			math.Float64bits(r.Accuracy) != math.Float64bits(g.Accuracy) {
			t.Fatalf("%s: round %d stats %+v vs %+v", label, i, r, g)
		}
	}
}

// aliasBackend constructs a backend by one of the former parallel names.
func aliasBackend(t *testing.T, name string) tensor.Backend {
	t.Helper()
	be, err := tensor.NewBackend(name, 4)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// TestBackendEndToEndParity runs the same fixed-seed experiment on the
// default backend and on what the alias "parallel" constructs; every
// reported number must match bit-for-bit.
func TestBackendEndToEndParity(t *testing.T) {
	for _, mk := range []struct {
		name  string
		strat func() Strategy
	}{
		{"fedavg", func() Strategy { return NewFedAvg(0) }},
		{"aergia", func() Strategy { return NewAergia(0, 1) }},
	} {
		cfg := parityConfig(mk.strat())
		ref, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", mk.name, err)
		}
		cfg = parityConfig(mk.strat())
		cfg.Backend = aliasBackend(t, "parallel")
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", mk.name, err)
		}
		assertResultsIdentical(t, mk.name+"/parallel", ref, got)
	}
}

// TestBackendSeedReproducibility guards the crypto/rand removal: two serial
// Aergia runs with the same seed must now be bit-identical end to end.
func TestBackendSeedReproducibility(t *testing.T) {
	a, err := Run(parityConfig(NewAergia(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(parityConfig(NewAergia(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "aergia repeat", a, b)
}

// TestFloat32EndToEndParity is the float32 mirror of the parity run:
// serial32 and its alias parallel32 must agree bit-for-bit on every
// reported number.
func TestFloat32EndToEndParity(t *testing.T) {
	for _, mk := range []struct {
		name  string
		strat func() Strategy
	}{
		{"fedavg", func() Strategy { return NewFedAvg(0) }},
		{"aergia", func() Strategy { return NewAergia(0, 1) }},
	} {
		cfg := parityConfig(mk.strat())
		cfg.Backend = tensor.NewSerial32()
		ref, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s serial32: %v", mk.name, err)
		}
		cfg = parityConfig(mk.strat())
		cfg.Backend = aliasBackend(t, "parallel32")
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s parallel32: %v", mk.name, err)
		}
		assertResultsIdentical(t, mk.name+"/parallel32", ref, got)
	}
}

// TestFloat32SeedReproducibility pins the float32 determinism contract:
// two float32 runs with the same seed are bit-identical end to end,
// even though float32 results differ from float64 by rounding, and they
// replay to one pinned result at GOMAXPROCS 1, 2 and 8, so a kernel edit
// that moves a float32 bit shows here as it would for float64.
func TestFloat32SeedReproducibility(t *testing.T) {
	mk := func() Config {
		cfg := parityConfig(NewAergia(0, 1))
		cfg.Backend = tensor.NewSerial32()
		return cfg
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "serial32 repeat", a, b)
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			cfg := mk()
			cl, err := cfg.Topology().Build()
			if err != nil {
				t.Fatal(err)
			}
			// The pin also folds every global model the run evaluates.
			models := evaluatedModels(cl)
			res, err := runOn(cl, cfg.Transport, cfg.Link, 0, (*Deployment).Run)
			if err != nil {
				t.Fatal(err)
			}
			// Both captured when the float32 engine first ran the exact
			// kernels the float64 engine runs, at GOMAXPROCS 1, 2 and 8.
			if got, want := resultHash(res), uint64(0xaccb2adbae3020da); got != want {
				t.Fatalf("GOMAXPROCS %d: result hash %#x, want %#x", procs, got, want)
			}
			if got, want := models(), uint64(0x5c38f67c816a0cd8); got != want {
				t.Fatalf("GOMAXPROCS %d: evaluated-model hash %#x, want %#x", procs, got, want)
			}
		})
	}
}

// TestFloat32AccuracyWithinTolerance bounds the float32/float64 divergence:
// rounding may flip a few borderline predictions, but the trained accuracy
// must stay close, and the virtual-time trajectory — driven by the FLOP
// cost model, not the element type — must be identical.
func TestFloat32AccuracyWithinTolerance(t *testing.T) {
	ref, err := Run(parityConfig(NewFedAvg(0)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := parityConfig(NewFedAvg(0))
	cfg.Backend = tensor.NewSerial32()
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(ref.FinalAccuracy - got.FinalAccuracy); diff > 0.15 {
		t.Fatalf("float32 accuracy %v vs float64 %v (diff %v)",
			got.FinalAccuracy, ref.FinalAccuracy, diff)
	}
	if ref.TotalTime != got.TotalTime {
		t.Fatalf("virtual time depends on dtype: %v vs %v", ref.TotalTime, got.TotalTime)
	}
}

// TestAsyncBackendParity covers the asynchronous engine's backend path.
func TestAsyncBackendParity(t *testing.T) {
	mk := func(be tensor.Backend) AsyncConfig {
		return AsyncConfig{
			Arch:         archForParity,
			Dataset:      dataset.MNIST,
			SmallImages:  true,
			Clients:      4,
			TotalUpdates: 8,
			BatchSize:    4,
			TrainSamples: 40,
			TestSamples:  40,
			Seed:         7,
			Backend:      be,
		}
	}
	ref, err := RunAsync(mk(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAsync(mk(aliasBackend(t, "parallel")))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ref.FinalAccuracy) != math.Float64bits(got.FinalAccuracy) ||
		ref.TotalTime != got.TotalTime {
		t.Fatalf("async parity: accuracy %v vs %v, time %v vs %v",
			ref.FinalAccuracy, got.FinalAccuracy, ref.TotalTime, got.TotalTime)
	}
}
