package fl

import (
	"time"

	"aergia/internal/chaos"
	"aergia/internal/cluster"
	"aergia/internal/dataset"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/sim"
	"aergia/internal/tensor"
)

// AsyncConfig describes an asynchronous FL experiment; the fields mirror
// Config where they overlap. Like Config it is a legacy flat form — RunAsync
// converts it to an async Topology and drives a Deployment.
type AsyncConfig struct {
	Arch          nn.Arch
	Dataset       dataset.Kind
	SmallImages   bool
	Clients       int
	TotalUpdates  int
	LocalEpochs   int
	BatchSize     int
	LR            float64
	Alpha         float64
	TrainSamples  int
	TestSamples   int
	NonIIDClasses int
	NoiseStd      float64
	Speeds        []float64
	SpeedJitter   float64
	Cost          cluster.CostModel
	Link          sim.LinkModel
	EvalEvery     int
	// Seed drives all randomness; 0 selects DefaultSeed (see NormalizeSeed).
	Seed uint64
	// Chaos is the fault schedule of the run (internal/chaos, DESIGN.md §7);
	// the zero plan keeps the fault-free bit-identical path.
	Chaos chaos.Plan
	// Backend selects the compute backend shared by every client and the
	// evaluator; nil means the serial reference.
	Backend tensor.Backend
	// Codec selects the wire codec for model-update payloads: "" or
	// "none" (raw), "q8", or "topk" — see internal/codec and DESIGN.md §8.
	Codec string
	// Hier carries the scale-out options (internal/hier) for record
	// compatibility; the async engine rejects an enabled value at Build
	// (hierarchical aggregation is sync-only for now), while the inert
	// Sample 1.0 normalizes to the zero value and runs flat.
	Hier hier.Options
	// Transport selects the message transport: "" or "sim" for the
	// virtual-time simulator, "tcp" for real TCP on loopback.
	Transport string
	// TransportTimeout bounds a wall-clock (tcp) run; 0 selects the
	// transport default. Ignored by the simulator.
	TransportTimeout time.Duration
	// Spans, when set, retains every completed message span (the tracer
	// itself is always on — see Topology.Spans).
	Spans *obs.SpanLog
	// Events, when set, receives one live obs.RoundEvent per evaluation
	// sample.
	Events *obs.RoundStream
}

// Topology converts the AsyncConfig into the async Topology it wraps.
func (c AsyncConfig) Topology() Topology {
	return Topology{
		Async:         true,
		Arch:          c.Arch,
		Dataset:       c.Dataset,
		SmallImages:   c.SmallImages,
		Clients:       c.Clients,
		TotalUpdates:  c.TotalUpdates,
		LocalEpochs:   c.LocalEpochs,
		BatchSize:     c.BatchSize,
		LR:            c.LR,
		Alpha:         c.Alpha,
		TrainSamples:  c.TrainSamples,
		TestSamples:   c.TestSamples,
		NonIIDClasses: c.NonIIDClasses,
		NoiseStd:      c.NoiseStd,
		Speeds:        c.Speeds,
		SpeedJitter:   c.SpeedJitter,
		Cost:          c.Cost,
		EvalEvery:     c.EvalEvery,
		Seed:          c.Seed,
		Chaos:         c.Chaos,
		Backend:       c.Backend,
		Codec:         c.Codec,
		Hier:          c.Hier,
		Spans:         c.Spans,
		Events:        c.Events,
	}
}

// RunAsync executes an asynchronous (FedAsync-style) experiment. Like Run
// it is a thin wrapper over Topology.Build and a Deployment on the
// configured transport's run stack (runOn).
func RunAsync(cfg AsyncConfig) (*AsyncResults, error) {
	cl, err := cfg.Topology().Build()
	if err != nil {
		return nil, err
	}
	return runOn(cl, cfg.Transport, cfg.Link, cfg.TransportTimeout, (*Deployment).RunAsync)
}
