package fl

import (
	"fmt"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/cluster"
	"aergia/internal/dataset"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/sim"
	"aergia/internal/tensor"
	"aergia/internal/trace"
)

// Config describes one end-to-end federated experiment. It is the legacy
// flat form of a synchronous Topology plus the run's transport selection;
// Run converts it and drives a Deployment, so Config and Topology runs are
// bit-identical under the same seed (see DESIGN.md §6).
type Config struct {
	// Strategy is the FL algorithm under test.
	Strategy Strategy
	// Arch is the model architecture; it must match the dataset shape.
	Arch nn.Arch
	// Dataset selects the synthetic benchmark.
	Dataset dataset.Kind
	// SmallImages uses the downscaled experiment shapes (see DESIGN.md).
	SmallImages bool
	// Clients is the cluster size (the paper uses 24).
	Clients int
	// Rounds is the number of global communication rounds.
	Rounds int
	// LocalEpochs is E, the local epochs per round.
	LocalEpochs int
	// BatchSize is the local mini-batch size.
	BatchSize int
	// LR is the local learning rate.
	LR float64
	// TrainSamples and TestSamples size the synthetic datasets.
	TrainSamples int
	TestSamples  int
	// NonIIDClasses limits each client to this many classes; 0 means IID.
	NonIIDClasses int
	// DirichletAlpha, when positive, partitions with per-class
	// Dirichlet(alpha) proportions instead (takes precedence over
	// NonIIDClasses).
	DirichletAlpha float64
	// Speeds fixes per-client CPU fractions; nil draws uniformly from
	// [0.1, 1.0] as in the paper's setup.
	Speeds []float64
	// SpeedJitter models transient load: each client's per-round speed is
	// its base speed scaled by a uniform factor in [1-j, 1+j].
	SpeedJitter float64
	// NoiseStd overrides the synthetic datasets' pixel noise (0 keeps the
	// dataset default); larger values make the task harder.
	NoiseStd float64
	// Cost converts FLOPs to virtual durations.
	Cost cluster.CostModel
	// Link models the network links; nil means ideal (zero-delay) links.
	// Link is honored by the sim transport only (real links are physical).
	Link sim.LinkModel
	// ProfileBatches is Aergia's online profiling window (per round).
	ProfileBatches int
	// EvalEvery evaluates accuracy every k rounds; 0 means every round.
	EvalEvery int
	// Seed drives all randomness (data, speeds, selection, init); 0 selects
	// DefaultSeed (see NormalizeSeed).
	Seed uint64
	// Chaos is the fault schedule of the run (internal/chaos, DESIGN.md
	// §7): seed-derived client crashes, rejoins, compute spikes, and lossy
	// links, plus the quorum/round-timeout hardening the federator applies
	// under churn. The zero plan keeps the fault-free bit-identical path.
	Chaos chaos.Plan
	// Backend selects the compute backend shared by every client and the
	// evaluator; nil means the serial float64 reference. Results are
	// bit-identical per backend at any GOMAXPROCS (see DESIGN.md).
	Backend tensor.Backend
	// Codec selects the wire codec for model-update payloads: "" or
	// "none" (raw, the pre-codec wire format), "q8", or "topk" — see
	// internal/codec and DESIGN.md §8.
	Codec string
	// Hier selects the scale-out behavior (per-round client sampling and
	// edge aggregation tiers — internal/hier, DESIGN.md §11). The zero
	// value keeps the flat topology bit-identical to the pre-hier path.
	Hier hier.Options
	// Transport selects the message transport: "" or "sim" for the
	// deterministic virtual-time simulator, "tcp" for real TCP on loopback
	// (same model math, wall-clock timings).
	Transport string
	// TransportTimeout bounds a wall-clock (tcp) run; 0 selects the
	// transport default (rpc.DefaultDriveTimeout). Long tcp runs take real
	// time — a simulated hour is an hour — so size this to the experiment.
	// Ignored by the virtual-time simulator, which needs no timeout.
	TransportTimeout time.Duration
	// Trace, when set, records the full event timeline of the run.
	Trace *trace.Log
	// Spans, when set, retains every completed message span (the tracer
	// itself is always on — see Topology.Spans).
	Spans *obs.SpanLog
	// Events, when set, receives live per-round obs.RoundEvents.
	Events *obs.RoundStream
}

// Topology converts the Config into the declarative Topology it wraps.
// Link and Transport stay behind: they are deployment concerns, consumed by
// NewTransport.
func (c Config) Topology() Topology {
	return Topology{
		Strategy:       c.Strategy,
		Arch:           c.Arch,
		Dataset:        c.Dataset,
		SmallImages:    c.SmallImages,
		Clients:        c.Clients,
		Rounds:         c.Rounds,
		LocalEpochs:    c.LocalEpochs,
		BatchSize:      c.BatchSize,
		LR:             c.LR,
		TrainSamples:   c.TrainSamples,
		TestSamples:    c.TestSamples,
		NonIIDClasses:  c.NonIIDClasses,
		DirichletAlpha: c.DirichletAlpha,
		Speeds:         c.Speeds,
		SpeedJitter:    c.SpeedJitter,
		NoiseStd:       c.NoiseStd,
		Cost:           c.Cost,
		ProfileBatches: c.ProfileBatches,
		EvalEvery:      c.EvalEvery,
		Seed:           c.Seed,
		Chaos:          c.Chaos,
		Backend:        c.Backend,
		Codec:          c.Codec,
		Hier:           c.Hier,
		Trace:          c.Trace,
		Spans:          c.Spans,
		Events:         c.Events,
	}
}

// tracerFor builds the run's span tracer: the trace ID is the seed, and
// whichever of Spans/Events the topology carries become sinks.
func tracerFor(t Topology) *obs.Tracer {
	var sinks []obs.SpanSink
	if t.Spans != nil {
		sinks = append(sinks, t.Spans)
	}
	if t.Events != nil {
		sinks = append(sinks, t.Events)
	}
	return obs.NewTracer(NormalizeSeed(t.Seed), sinks...)
}

// Run executes the experiment and returns its results. It is a thin
// compatibility wrapper: the cluster is materialized by Topology.Build and
// driven by a Deployment over the configured transport's run stack (runOn;
// the virtual-time simulator by default).
func Run(cfg Config) (*Results, error) {
	if cfg.Strategy == nil {
		return nil, fmt.Errorf("fl: config needs a strategy")
	}
	cl, err := cfg.Topology().Build()
	if err != nil {
		return nil, err
	}
	return runOn(cl, cfg.Transport, cfg.Link, cfg.TransportTimeout, (*Deployment).Run)
}
