package fl

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/cluster"
	"aergia/internal/codec"
	"aergia/internal/nn"
	"aergia/internal/sim"
	"aergia/internal/tensor"
)

// TestCodecNoneMatchesGolden is the golden parity pin for the codec
// subsystem: a run with Codec "none" — and one with the field left unset —
// must reproduce the PR 4 topology goldens Float64bits-identically on the
// sim transport, both bare and forced through a zero-plan chaos.Transport.
// The none path is a full bypass, so even the wire sizes (and thus every
// bandwidth-delayed timing) are byte-for-byte the pre-codec ones.
func TestCodecNoneMatchesGolden(t *testing.T) {
	for _, mk := range []struct {
		name  string
		strat func() Strategy
	}{
		{"fedavg", func() Strategy { return NewFedAvg(0) }},
		{"aergia", func() Strategy { return NewAergia(0, 1) }},
	} {
		for _, codecName := range []string{"", "none"} {
			cfg := parityConfig(mk.strat())
			cfg.Codec = codecName
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesGolden(t, "codec-"+codecName+"/"+mk.name, mk.name, res)

			// Same pin under an explicit zero chaos plan: the two bypasses
			// (zero plan, none codec) must compose transparently.
			dep, ct := buildChaosDeployment(t, cfg, chaos.Plan{})
			res, err = dep.Run()
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesGolden(t, "codec-"+codecName+"-zero-chaos/"+mk.name, mk.name, res)
			if s := ct.Stats(); s != (chaos.Stats{}) {
				t.Fatalf("zero plan injected faults: %+v", s)
			}
		}
	}
}

// TestCodecUnknownFailsLoudly pins Build-time validation of codec names.
func TestCodecUnknownFailsLoudly(t *testing.T) {
	cfg := parityConfig(NewFedAvg(0))
	cfg.Codec = "gzip"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "unknown codec") {
		t.Fatalf("err = %v, want an unknown-codec error", err)
	}
}

// codecBandwidthConfig is a bandwidth-sensitive parity-scale run: the
// edge-grade link makes transfer delay depend on encoded sizes, and Aergia
// exercises the offload and feature-return payload paths.
func codecBandwidthConfig(codecName string) Config {
	cfg := parityConfig(NewAergia(0, 1))
	cfg.Rounds = 3
	cfg.Link = sim.UniformLink(10*time.Millisecond, 1e6)
	cfg.Codec = codecName
	return cfg
}

// TestCodecShrinksUpdateTraffic is the acceptance pin on the sim
// transport: against the raw baseline, topk must cut the model-update
// traffic (updates + offloads + feature returns) by at least 4x and q8 by
// at least 4x, the downlink must be byte-identical (it always ships raw),
// and the encoded runs must still converge.
func TestCodecShrinksUpdateTraffic(t *testing.T) {
	base, err := Run(codecBandwidthConfig("none"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Bandwidth.UpdateTraffic() == 0 || base.Bandwidth.DispatchBytes == 0 {
		t.Fatalf("baseline counters empty: %+v", base.Bandwidth)
	}
	for _, name := range []string{codec.Q8, codec.TopK} {
		res, err := Run(codecBandwidthConfig(name))
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(base.Bandwidth.UpdateTraffic()) / float64(res.Bandwidth.UpdateTraffic())
		if ratio < 4 {
			t.Fatalf("%s shrank update traffic only %.2fx (%d -> %d bytes)", name, ratio,
				base.Bandwidth.UpdateTraffic(), res.Bandwidth.UpdateTraffic())
		}
		if res.Bandwidth.DispatchBytes != base.Bandwidth.DispatchBytes {
			t.Fatalf("%s changed the raw downlink: %d vs %d bytes",
				name, res.Bandwidth.DispatchBytes, base.Bandwidth.DispatchBytes)
		}
		// Lossy compression of deltas must not break learning: the encoded
		// run stays within reach of the raw baseline's accuracy.
		if res.FinalAccuracy < base.FinalAccuracy-0.25 {
			t.Fatalf("%s accuracy %.3f collapsed vs baseline %.3f",
				name, res.FinalAccuracy, base.FinalAccuracy)
		}
		if res.Rounds[len(res.Rounds)-1].Completed == 0 {
			t.Fatalf("%s final round aggregated nothing", name)
		}
	}
}

// TestCodecRunsDeterministic pins replay determinism of encoded runs on
// the sim transport: same seed + same codec => identical trajectory,
// bandwidth ledgers included (the residual accumulation is part of the
// deterministic state).
func TestCodecRunsDeterministic(t *testing.T) {
	for _, name := range []string{codec.Q8, codec.TopK} {
		a, err := Run(codecBandwidthConfig(name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(codecBandwidthConfig(name))
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, name+" replay", a, b)
		if a.Bandwidth != b.Bandwidth {
			t.Fatalf("%s bandwidth ledgers diverged: %+v vs %+v", name, a.Bandwidth, b.Bandwidth)
		}
	}
}

// TestCodecDelaysScaleWithEncodedSize pins the sim-transport contract that
// motivated the codec: transfer delay follows the encoded size, so a
// sparsified run finishes its rounds faster on a bandwidth-bound link.
func TestCodecDelaysScaleWithEncodedSize(t *testing.T) {
	slow := func(codecName string) *Results {
		cfg := parityConfig(NewFedAvg(0))
		cfg.SpeedJitter = 0
		cfg.Speeds = []float64{1, 1, 1, 1, 1}
		// A starved link makes wire bytes the round bottleneck.
		cfg.Link = sim.UniformLink(0, 2e5)
		cfg.Codec = codecName
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	raw := slow("none")
	packed := slow(codec.TopK)
	if packed.TotalTime >= raw.TotalTime {
		t.Fatalf("topk run (%v) not faster than raw (%v) on a bandwidth-bound link",
			packed.TotalTime, raw.TotalTime)
	}
}

// TestCodecOverTCP runs an encoded Aergia round over the real transport:
// the encoded payload structs must survive gob, both ends must agree on
// the delta base, and the run must converge with the offload protocol
// active. Real bytes on the wire shrink with the payloads, which the
// ledger reflects.
func TestCodecOverTCP(t *testing.T) {
	for _, name := range []string{codec.Q8, codec.TopK} {
		cfg := Config{
			Strategy:       NewAergia(0, 1),
			Arch:           archForParity,
			Dataset:        parityConfig(NewFedAvg(0)).Dataset,
			SmallImages:    true,
			Clients:        4,
			Rounds:         2,
			LocalEpochs:    2,
			BatchSize:      8,
			LR:             0.05,
			TrainSamples:   128,
			TestSamples:    50,
			Speeds:         []float64{0.2, 0.9, 1.0, 0.95},
			Cost:           cluster.CostModel{FLOPSPerSecond: 2e9},
			ProfileBatches: 1,
			Seed:           5,
			Transport:      TransportTCP,
			Codec:          name,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rounds) != cfg.Rounds {
			t.Fatalf("%s: %d rounds, want %d", name, len(res.Rounds), cfg.Rounds)
		}
		for _, r := range res.Rounds {
			if r.Completed != cfg.Clients {
				t.Fatalf("%s: round %d completed %d/%d", name, r.Round, r.Completed, cfg.Clients)
			}
		}
		if res.FinalAccuracy <= 0.2 {
			t.Fatalf("%s: accuracy = %v", name, res.FinalAccuracy)
		}
		if res.Bandwidth.UpdateBytes == 0 || res.Bandwidth.DispatchBytes == 0 {
			t.Fatalf("%s: bandwidth ledger empty: %+v", name, res.Bandwidth)
		}
		if res.Bandwidth.UpdateBytes >= res.Bandwidth.DispatchBytes {
			t.Fatalf("%s: encoded uplink (%d B) not smaller than raw downlink (%d B)",
				name, res.Bandwidth.UpdateBytes, res.Bandwidth.DispatchBytes)
		}
	}
}

// TestCodecAsync drives the async engine with an encoded update stream:
// the per-dispatch base bookkeeping must line up (every absorbed update
// decodes against the version it answered), the budget must be exhausted,
// and the sim trajectory must replay bit-identically.
func TestCodecAsync(t *testing.T) {
	run := func(name string) *AsyncResults {
		cfg := asyncParityConfig()
		cfg.Codec = name
		res, err := RunAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, name := range []string{codec.Q8, codec.TopK} {
		a := run(name)
		if a.TotalUpdates != asyncParityConfig().TotalUpdates {
			t.Fatalf("%s: absorbed %d updates, want %d", name, a.TotalUpdates, asyncParityConfig().TotalUpdates)
		}
		if a.FinalAccuracy <= 0.2 {
			t.Fatalf("%s: async accuracy = %v", name, a.FinalAccuracy)
		}
		if a.Bandwidth.UpdateBytes == 0 {
			t.Fatalf("%s: async ledger empty: %+v", name, a.Bandwidth)
		}
		b := run(name)
		if math.Float64bits(a.FinalAccuracy) != math.Float64bits(b.FinalAccuracy) ||
			a.TotalTime != b.TotalTime || a.Bandwidth != b.Bandwidth {
			t.Fatalf("%s: async replay diverged: %+v vs %+v", name, a, b)
		}
	}
}

// TestCodecWithChurn composes the two subsystems: a crash-and-rejoin plan
// over an encoded run must still complete deterministically — the rejoin
// handshake resets the residual streams with the rest of the client state.
// It replays at GOMAXPROCS 1, 2 and 8: Aergia's helpers decode on lane
// workers with the codec value the clock's goroutine encodes with, and
// every client stages its deltas in the process's one stock of work
// vectors, so state leaking through either would show as a diverging run.
func TestCodecWithChurn(t *testing.T) {
	run := func() *Results {
		cfg := parityConfig(NewAergia(0, 1))
		cfg.Rounds = 3
		cfg.Codec = codec.TopK
		cfg.Chaos = chaos.Plan{
			Churn:        0.5,
			Rejoin:       1,
			Window:       1500 * time.Millisecond,
			Down:         400 * time.Millisecond,
			Quorum:       0.4,
			RoundTimeout: 4 * time.Second,
			Seed:         11,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if len(a.Rounds) != 3 {
		t.Fatalf("churned codec run completed %d rounds, want 3", len(a.Rounds))
	}
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			b := run()
			assertResultsIdentical(t, fmt.Sprintf("topk churn replay at GOMAXPROCS %d", procs), a, b)
			if a.Bandwidth != b.Bandwidth {
				t.Fatalf("GOMAXPROCS %d: churn bandwidth ledgers diverged: %+v vs %+v", procs, a.Bandwidth, b.Bandwidth)
			}
		})
	}
}

// oldDecodeSection is decodeSection as it stood before DecodeInto: decode
// to a fresh delta, add it to the base in a second fresh vector.
func oldDecodeSection(dec codec.Codec, data []byte, base []float64) ([]float64, error) {
	delta, err := dec.Decode(data)
	if err != nil {
		return nil, err
	}
	if len(delta) != len(base) {
		return nil, fmt.Errorf("fl: decode: %d-value delta for a %d-value section", len(delta), len(base))
	}
	out := make([]float64, len(base))
	for i, b := range base {
		out[i] = b + delta[i]
	}
	return out, nil
}

// TestDecodeSectionBitIdentical: decoding straight into the output vector
// reconstructs what the two-vector version did, bit for bit, on bases that
// hold negative zeros (which base + 0.0 turns positive and a copy of the
// base would not) — for every codec, per section and per snapshot, into a
// fresh vector (one allocation) or a dirty leased one (none) — and a frame
// sized for another section is refused.
func TestDecodeSectionBitIdentical(t *testing.T) {
	rng := tensor.NewRNG(17)
	section := func(n int) (base, vals []float64) {
		base, vals = make([]float64, n), make([]float64, n)
		for i := range base {
			base[i] = rng.NormFloat64()
			if i%5 == 0 {
				base[i] = math.Copysign(0, -1)
			}
			vals[i] = base[i] + 0.01*rng.NormFloat64()
			if i%7 == 0 {
				vals[i] = base[i] // a zero delta on a -0 base every 35th entry
			}
		}
		return base, vals
	}
	var base, w nn.Weights
	base.Feature, w.Feature = section(700)
	base.Classifier, w.Classifier = section(90)
	for _, name := range []string{codec.None, codec.Q8, codec.TopK} {
		c, err := codec.New(name)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := encodeWeights(name, c, c, w, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeWeights(c, enc, base, nn.Weights{})
		if err != nil {
			t.Fatal(err)
		}
		// A leased vector holds what its last holder left in it: NaNs here.
		dirty := nn.Weights{Feature: make([]float64, 700, 800), Classifier: make([]float64, 3)}
		for i := range dirty.Feature {
			dirty.Feature[i] = math.NaN()
		}
		leased, err := decodeWeights(c, enc, base, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if &leased.Feature[0] != &dirty.Feature[0] {
			t.Fatalf("%s: a vector with room for the feature section was not decoded into", name)
		}
		for _, s := range []struct {
			label     string
			data      []byte
			base, got []float64
		}{
			{"feature", enc.Feature, base.Feature, got.Feature},
			{"classifier", enc.Classifier, base.Classifier, got.Classifier},
			{"leased feature", enc.Feature, base.Feature, leased.Feature},
			{"leased classifier", enc.Classifier, base.Classifier, leased.Classifier},
		} {
			want, err := oldDecodeSection(c, s.data, s.base)
			if err != nil {
				t.Fatal(err)
			}
			zeros := 0
			for i := range want {
				if math.Float64bits(s.got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %s[%d]: %x, the two-vector decode gives %x", name, s.label, i,
						math.Float64bits(s.got[i]), math.Float64bits(want[i]))
				}
				if want[i] == 0 && !math.Signbit(want[i]) {
					zeros++
				}
			}
			if name != codec.Q8 && zeros == 0 {
				t.Fatalf("%s %s: no -0 base entry came back as +0; the case is not exercised", name, s.label)
			}
			if n := testing.AllocsPerRun(10, func() { decodeSection(c, s.data, s.base, nil) }); n != 1 {
				t.Errorf("%s %s: decodeSection made %v allocations, want 1 (the output)", name, s.label, n)
			}
			if n := testing.AllocsPerRun(10, func() { decodeSection(c, s.data, s.base, s.got) }); n != 0 {
				t.Errorf("%s %s: decodeSection into a vector of its size made %v allocations", name, s.label, n)
			}
		}
		if _, err := decodeSection(c, enc.Classifier, base.Feature, nil); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("%s: a classifier frame decoded as a feature section: %v", name, err)
		}
	}
}
