package fl

import (
	"fmt"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/cluster"
	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/enclave"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/sched"
	"aergia/internal/similarity"
	"aergia/internal/tensor"
	"aergia/internal/trace"
)

// DefaultSeed is the seed selected when a caller leaves Seed at zero.
const DefaultSeed uint64 = 1

// NormalizeSeed resolves the experiment seed: zero means "unset" and maps
// to DefaultSeed, so a valid run always has Seed != 0. This is the one
// normalization rule shared by every entry point (Topology, the Config and
// AsyncConfig wrappers, experiments.Options), which keeps the dedup keys of
// the result store and the RNG streams of the engines from drifting apart.
// All randomness of a run — data generation, partitioning, speeds, crypto
// material, client selection, weight init — derives from the one seed, so
// two callers wanting distinct runs must pass distinct non-zero seeds.
func NormalizeSeed(seed uint64) uint64 {
	if seed == 0 {
		return DefaultSeed
	}
	return seed
}

// Topology is the declarative description of a federated cluster: what data
// it trains on and how it is partitioned, the clients' resources, the
// algorithm, and the seed every piece of randomness derives from. It is
// transport-free — Build materializes the actors and shared state once, and
// a Deployment then binds them to any comm.Transport (virtual-time
// simulation or real TCP). See DESIGN.md §6 for the contract.
//
// The zero value of most fields selects the paper's defaults (24 clients,
// 10 rounds, batch 8, LR 0.05, ...); Build normalizes a copy, so a Topology
// value can be reused and rebuilt.
type Topology struct {
	// Async selects the asynchronous (FedAsync-style) engine instead of the
	// synchronous round-based one. Async runs ignore Strategy, Rounds,
	// DirichletAlpha, and ProfileBatches and use TotalUpdates/Alpha.
	Async bool
	// Strategy is the FL algorithm under test (sync mode only).
	Strategy Strategy
	// Arch is the model architecture; it must match the dataset shape.
	Arch nn.Arch
	// Dataset selects the synthetic benchmark.
	Dataset dataset.Kind
	// SmallImages uses the downscaled experiment shapes (see DESIGN.md).
	SmallImages bool
	// Clients is the cluster size (the paper uses 24).
	Clients int
	// Rounds is the number of global communication rounds (sync mode).
	Rounds int
	// TotalUpdates is the async analogue of a round budget: the number of
	// client updates to absorb before stopping (async mode).
	TotalUpdates int
	// LocalEpochs is E, the local epochs per round.
	LocalEpochs int
	// BatchSize is the local mini-batch size.
	BatchSize int
	// LR is the local learning rate.
	LR float64
	// Alpha is the async base mixing weight in (0,1] (async mode).
	Alpha float64
	// TrainSamples and TestSamples size the synthetic datasets.
	TrainSamples int
	TestSamples  int
	// NonIIDClasses limits each client to this many classes; 0 means IID.
	NonIIDClasses int
	// DirichletAlpha, when positive, partitions with per-class
	// Dirichlet(alpha) proportions instead (takes precedence over
	// NonIIDClasses; sync mode only).
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
	// Cost converts FLOPs to virtual (or, over TCP, charged wall-clock)
	// durations.
	Cost cluster.CostModel
	// ProfileBatches is Aergia's online profiling window per round (sync).
	ProfileBatches int
	// EvalEvery evaluates accuracy every k rounds (sync) or k updates
	// (async); 0 means the engine default.
	EvalEvery int
	// Seed drives all randomness; 0 resolves to DefaultSeed (see
	// NormalizeSeed for the Seed != 0 contract).
	Seed uint64
	// Chaos is the fault schedule of the run (client crashes, rejoins,
	// lossy links — see internal/chaos and DESIGN.md §7). The zero plan
	// is a fault-free run, bit-identical to the pre-chaos code path. The
	// plan's Quorum/RoundTimeout harden the federator; the event timeline
	// is injected by the fault interceptor Run/RunAsync stack (explicit
	// Deployment users wrap with chaos.Wrap themselves).
	Chaos chaos.Plan
	// Backend selects the compute backend shared by every client and the
	// evaluator; nil means the serial float64 reference. Results are
	// bit-identical per backend at any GOMAXPROCS (see DESIGN.md §2).
	Backend tensor.Backend
	// Hier selects the scale-out behavior (internal/hier, DESIGN.md §11):
	// Sample picks a deterministic per-round cohort fraction, Tiers inserts
	// edge aggregators between the clients and the root. The zero value —
	// and Sample 1.0, which normalizes to it — keeps the flat
	// everyone-participates topology bit-identical to the pre-hier path.
	Hier hier.Options
	// Codec selects the wire codec that shrinks model-update payloads
	// (updates, offload shipments, feature returns): "" or "none" ships
	// raw float64 snapshots — byte-for-byte the pre-codec wire format —
	// "q8" quantizes update deltas to int8, "topk" sparsifies them with
	// client-side residual accumulation. See internal/codec and DESIGN.md
	// §8. The global-model downlink always ships raw: it is the shared
	// base both ends decode deltas against.
	Codec string
	// Trace, when set, records the full event timeline of the run.
	Trace *trace.Log
	// Spans, when set, collects every completed message span of the run —
	// Run/RunAsync wrap the transport with an obs.Tracer feeding it (the
	// tracer is always applied; Spans just retains its output). Like Trace
	// it is passive: a collecting run stays bit-identical.
	Spans *obs.SpanLog
	// Events, when set, receives one live obs.RoundEvent per completed
	// round (or async evaluation sample) and the round's spans for
	// straggler extraction. aergiad streams it over SSE.
	Events *obs.RoundStream
	// Logf, when set, receives debug traces from the actors.
	Logf func(format string, args ...any)
}

// normalized returns a copy with the paper's defaults resolved; it is the
// single defaulting path behind Build, fl.Run, and fl.RunAsync.
func (t Topology) normalized() Topology {
	if t.Clients == 0 {
		t.Clients = 24
	}
	if t.Async {
		if t.TotalUpdates == 0 {
			t.TotalUpdates = 10 * t.Clients
		}
		if t.Alpha == 0 {
			t.Alpha = 0.6
		}
	} else if t.Rounds == 0 {
		t.Rounds = 10
	}
	if t.LocalEpochs == 0 {
		t.LocalEpochs = 1
	}
	if t.BatchSize == 0 {
		t.BatchSize = 8
	}
	if t.LR == 0 {
		t.LR = 0.05
	}
	if t.TrainSamples == 0 {
		t.TrainSamples = 40 * t.Clients
	}
	if t.TestSamples == 0 {
		t.TestSamples = 200
	}
	if t.Cost.FLOPSPerSecond == 0 {
		t.Cost = cluster.DefaultCostModel()
	}
	if !t.Async && t.ProfileBatches == 0 {
		t.ProfileBatches = 1
	}
	t.Seed = NormalizeSeed(t.Seed)
	return t
}

// Cluster is the materialized form of a Topology: the federator and client
// actors plus the shared state a Deployment binds to a transport. Exactly
// one of Federator/AsyncFederator is non-nil, matching Topology.Async.
type Cluster struct {
	// Topology is the normalized description the cluster was built from.
	Topology Topology
	// Federator coordinates sync rounds (nil in async mode).
	Federator *Federator
	// AsyncFederator absorbs updates as they arrive (nil in sync mode).
	AsyncFederator *AsyncFederator
	// Clients are the client actors, indexed by their NodeID.
	Clients []*Client
	// Infos is the federator's static view of the clients.
	Infos []ClientInfo
	// Bandwidth is the run's shared byte counter; every actor records its
	// sends here and Deployment snapshots it into the results.
	Bandwidth *Bandwidth
	// Hier is the scale-out half of a hierarchically built cluster (lazy
	// shells and edge aggregators); nil for flat topologies, in which case
	// Clients holds the materialized actors.
	Hier *HierCluster
	// lanes groups the compute lanes of the cluster's clients, hydrated
	// ones included, and the federator's evaluations; Deployment.Run/RunAsync
	// drain it before they return.
	lanes *laneGroup
}

// Build materializes the cluster: it generates and partitions the dataset,
// fixes client resources, derives all crypto/enclave material from the
// seed, runs the pre-training phases the strategy needs (enclave similarity
// submission, offline profiling), and constructs initialized federator and
// client actors. The result is transport-free; bind it with a Deployment.
//
// Everything Build does is deterministic in Topology.Seed, and the build
// sequence is fixed, so two Builds of the same Topology produce actors in
// identical states regardless of the transport they later run on.
func (t Topology) Build() (*Cluster, error) {
	t = t.normalized()
	if !t.Async && t.Strategy == nil {
		return nil, fmt.Errorf("fl: topology needs a strategy")
	}
	plan, err := t.Chaos.Normalized()
	if err != nil {
		return nil, fmt.Errorf("fl: chaos plan: %w", err)
	}
	t.Chaos = plan
	hierOpts, err := t.Hier.Normalized()
	if err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}
	t.Hier = hierOpts
	codecName, err := codec.Canonical(t.Codec)
	if err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}
	t.Codec = codecName
	// The none codec is a full bypass — actors ship raw snapshots exactly
	// like the pre-codec wire format — so a nil Codec on the actors is the
	// fast path the golden parity tests pin.
	var wireCodec codec.Codec
	if codecName != codec.None {
		if wireCodec, err = codec.New(codecName); err != nil {
			return nil, fmt.Errorf("fl: %w", err)
		}
	}
	// What every client of the cluster shares and none needs its own copy
	// of: the class distributions all data is drawn from (prototypes computed
	// once), the architecture's phase costs, the byte ledger, and the lane
	// group with the run's free list of model replicas.
	data, err := dataset.NewSource(t.Dataset, t.Seed, t.SmallImages, t.NoiseStd)
	if err != nil {
		return nil, fmt.Errorf("fl: data: %w", err)
	}
	phase, err := t.Arch.PhaseFLOPs()
	if err != nil {
		return nil, fmt.Errorf("fl: phase costs: %w", err)
	}
	bw := &Bandwidth{}
	lanes := newLaneGroup()
	// The held-out test set: the same class prototypes as the training data,
	// a different noise stream.
	test, err := data.Generate(t.TestSamples, 1)
	if err != nil {
		return nil, fmt.Errorf("fl: test data: %w", err)
	}
	if t.Hier.Enabled() {
		// The scale-out path: lazy profiles and edge aggregators instead of
		// N materialized clients (see hier.go and DESIGN.md §11).
		return t.buildHier(data, test, phase, wireCodec, bw, lanes)
	}

	// Disjoint client shards of one train set.
	train, err := data.Generate(t.TrainSamples, 0)
	if err != nil {
		return nil, fmt.Errorf("fl: train data: %w", err)
	}
	dataRNG := tensor.NewRNG(t.Seed ^ 0xda7a)
	var shards []*dataset.Dataset
	switch {
	case !t.Async && t.DirichletAlpha > 0:
		shards, err = dataset.PartitionDirichlet(train, t.Clients, t.DirichletAlpha, dataRNG)
	case t.NonIIDClasses > 0:
		shards, err = dataset.PartitionNonIID(train, t.Clients, t.NonIIDClasses, dataRNG)
	default:
		shards, err = dataset.PartitionIID(train, t.Clients, dataRNG)
	}
	if err != nil {
		return nil, fmt.Errorf("fl: partition: %w", err)
	}

	// Resources.
	speeds := t.Speeds
	if speeds == nil {
		speeds = cluster.UniformSpeeds(t.Clients, tensor.NewRNG(t.Seed^0x5eed))
	}
	if len(speeds) != t.Clients {
		return nil, fmt.Errorf("fl: %d speeds for %d clients", len(speeds), t.Clients)
	}

	// Schedule signing and enclave-based similarity (offloading strategies
	// only), plus any offline pre-training the strategy charges for.
	var signer *sched.Signer
	var simMatrix similarity.Matrix
	var preTraining time.Duration
	if !t.Async && t.Strategy.Offloading() {
		// All simulated key material and nonces derive from the experiment
		// seed so that runs are reproducible bit-for-bit.
		simRand := tensor.NewRNG(t.Seed ^ 0x5ea1ed)
		signer, err = sched.NewSigner(simRand)
		if err != nil {
			return nil, err
		}
		// Pre-training phase: remote attestation plus sealed submission of
		// every client's class distribution; the enclave computes the EMD
		// matrix. This happens once, before round 0 (§4.4).
		encl, err := enclave.New(simRand)
		if err != nil {
			return nil, fmt.Errorf("fl: enclave: %w", err)
		}
		report := encl.AttestationReport()
		for i, shard := range shards {
			sub, err := enclave.Seal(report, i, shard.ClassDistribution(), simRand)
			if err != nil {
				return nil, fmt.Errorf("fl: seal client %d: %w", i, err)
			}
			if err := encl.Submit(sub); err != nil {
				return nil, fmt.Errorf("fl: submit client %d: %w", i, err)
			}
		}
		simMatrix, err = encl.SimilarityMatrix(t.Clients)
		if err != nil {
			return nil, fmt.Errorf("fl: similarity matrix: %w", err)
		}
		// Attestation round-trip plus one small message per client.
		preTraining += 100 * time.Millisecond
	}

	// TiFL profiles clients offline before training; charge the profiling
	// pass (clients run in parallel, so the slowest bounds it).
	if tifl, ok := t.Strategy.(*TiFL); ok && tifl != nil {
		var slowest time.Duration
		for _, s := range speeds {
			d, err := t.Cost.BatchDuration(phase, t.BatchSize, s)
			if err != nil {
				return nil, err
			}
			const offlineProfilingBatches = 10
			if d*offlineProfilingBatches > slowest {
				slowest = d * offlineProfilingBatches
			}
		}
		preTraining += slowest
	}

	// Clients.
	infos := make([]ClientInfo, t.Clients)
	clients := make([]*Client, t.Clients)
	simIndex := make(map[comm.NodeID]int, t.Clients)
	for i := 0; i < t.Clients; i++ {
		id := comm.NodeID(i)
		infos[i] = ClientInfo{ID: id, Samples: shards[i].Len(), Speed: speeds[i]}
		simIndex[id] = i
		// Each client pins the federator's key with its own replay state:
		// envelope sequence numbers are global, so a shared verifier would
		// reject a sibling's later-signed directive as a replay.
		var verifier *sched.Verifier
		if signer != nil {
			verifier = sched.NewVerifier(signer.PublicKey())
		}
		client := &Client{
			ID:               id,
			Arch:             t.Arch,
			Data:             shards[i],
			Speed:            speeds[i],
			Jitter:           t.SpeedJitter,
			JitterSeed:       t.Seed,
			Cost:             t.Cost,
			Backend:          t.Backend,
			Codec:            wireCodec,
			BW:               bw,
			Verifier:         verifier,
			ProfilerOverhead: -1,
			Logf:             t.Logf,
			Trace:            t.Trace,
			phase:            phase,
			lanes:            lanes,
		}
		if err := client.Init(); err != nil {
			return nil, err
		}
		clients[i] = client
	}

	// Federator.
	testXs, testYs := test.Inputs(), test.Labels()
	evaluate, err := newEvaluator(t.Arch, t.Backend, testXs, testYs)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		Topology:  t,
		Clients:   clients,
		Infos:     infos,
		Bandwidth: bw,
		lanes:     lanes,
	}
	if t.Async {
		fed := &AsyncFederator{
			Arch:    t.Arch,
			Clients: infos,
			Local: LocalConfig{
				Epochs:    t.LocalEpochs,
				BatchSize: t.BatchSize,
				LR:        t.LR,
			},
			Alpha:        t.Alpha,
			TotalUpdates: t.TotalUpdates,
			EvalEvery:    t.EvalEvery,
			// The plan's RoundTimeout doubles as the async liveness bound:
			// a client silent past it is re-dispatched, so lossy links
			// cannot strand the update budget.
			RedispatchAfter: t.Chaos.RoundTimeout,
			Evaluate:        evaluate,
			Seed:            t.Seed,
			Codec:           wireCodec,
			BW:              bw,
			Events:          t.Events,
			Logf:            t.Logf,
			lanes:           lanes,
		}
		if err := fed.Init(); err != nil {
			return nil, err
		}
		cl.AsyncFederator = fed
		return cl, nil
	}
	profileBatches := 0
	simFactor := 0.0
	if aergiaStrat, isAergia := t.Strategy.(*Aergia); isAergia {
		profileBatches = t.ProfileBatches
		simFactor = aergiaStrat.SimilarityFactor
	}
	fed := &Federator{
		Arch:     t.Arch,
		Strategy: t.Strategy,
		Clients:  infos,
		Local: LocalConfig{
			Epochs:         t.LocalEpochs,
			BatchSize:      t.BatchSize,
			LR:             t.LR,
			ProfileBatches: profileBatches,
		},
		Rounds:           t.Rounds,
		EvalEvery:        t.EvalEvery,
		Evaluate:         evaluate,
		QuorumFrac:       t.Chaos.Quorum,
		RoundTimeout:     t.Chaos.RoundTimeout,
		Signer:           signer,
		Similarity:       simMatrix,
		SimilarityIndex:  simIndex,
		SimilarityFactor: simFactor,
		Seed:             t.Seed,
		Codec:            wireCodec,
		BW:               bw,
		Events:           t.Events,
		Logf:             t.Logf,
		Trace:            t.Trace,
		roundMachine:     roundMachine{lanes: lanes},
	}
	if err := fed.Init(); err != nil {
		return nil, err
	}
	fed.Results().PreTraining = preTraining
	cl.Federator = fed
	return cl, nil
}
