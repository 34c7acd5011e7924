package fl

import (
	"fmt"
	"sort"
	"time"

	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/tensor"
	"aergia/internal/trace"
)

// HierCluster is the scale-out half of a hierarchically built Cluster
// (Topology.Hier enabled): the lazy shells standing in for the client
// population and the edge aggregators that own them. Deployment.bind
// registers the population as one ID range whose factory is Shell, and the
// edges, instead of Cluster.Clients and, when edge tiers exist, adds the
// hier.Route interceptor to the transport.
type HierCluster struct {
	// Options is the normalized scale-out selection the cluster was built
	// with.
	Options hier.Options
	// Shells are the lazy client stand-ins built so far, by NodeID: a shell
	// is built the first time the transport addresses its client (or Shell
	// is called), so a run holds one for each client it touched, not one
	// per client. Each hydrates into a full Client on its first training
	// dispatch.
	Shells map[comm.NodeID]*hier.LazyClient
	// Edges are the edge aggregators (empty when Tiers is 0). Edges with
	// no assigned clients are dropped at build time.
	Edges []*EdgeAggregator

	profile func(comm.NodeID) hier.Profile
	hydrate hier.Hydrator
}

// Shell returns client id's shell, building it from (seed, id) the first
// time. The transport calls it as a client activates, on one goroutine (the
// simulator's kernel, or Deployment.bind's when the transport registers the
// range eagerly); a test may call it before the run to drive a shell by
// hand.
func (hc *HierCluster) Shell(id comm.NodeID) *hier.LazyClient {
	s := hc.Shells[id]
	if s == nil {
		s = &hier.LazyClient{Profile: hc.profile(id), Hydrate: hc.hydrate}
		hc.Shells[id] = s
	}
	return s
}

// EdgeAggregator is the mid-tier actor of the two-tier federation: it owns
// a hash-assigned cohort of clients, re-dispatches the root's training
// round to the round's sampled sub-cohort, combines their decoded updates
// locally with the FedAvg rule, and ships one codec-compressed aggregate
// delta upstream. The root federator therefore sees one child per edge
// instead of the cohort — its per-round bookkeeping is O(tiers), not O(N).
//
// The exactness argument: weightedAverage is a sample-weighted mean, and a
// weighted mean of per-edge weighted means (each weighted by its cohort's
// total samples) equals the flat weighted mean over all clients — so for
// FedAvg-family aggregation the hierarchy changes where the adds happen,
// not what the root computes (modulo codec loss on the extra hop).
type EdgeAggregator struct {
	// ID is the edge's node identity (hier.EdgeID(k)).
	ID comm.NodeID
	// Cohort is the full membership this edge owns, in ID order. It is
	// read-only once messages flow: the sampler may return it as the round's
	// sample, which the tracker keeps as its members.
	Cohort []comm.NodeID
	// Sampler picks each round's participating sub-cohort; its pure
	// (seed, round, id) hash means the edge never coordinates membership
	// with the root or its siblings.
	Sampler hier.Sampler
	// Codec decodes client uplinks and encodes the upstream aggregate as a
	// delta against the round's dispatched base; nil ships raw snapshots.
	Codec codec.Codec
	// BW, when set, counts the bytes this edge puts on the wire.
	BW *Bandwidth
	// Timeout cuts the round: an edge whose sampled clients went silent
	// flushes what arrived instead of wedging the tier. 0 waits forever
	// (the root's own RoundTimeout/quorum is then the only backstop).
	Timeout time.Duration
	// Logf, when set, receives debug traces.
	Logf func(format string, args ...any)
	// Trace, when set, records timeline events.
	Trace *trace.Log

	// updFeature/updClassifier encode the upstream aggregate stream; for
	// sparsifying codecs they carry the edge's own residual error feedback,
	// mirroring the client-side streams (DESIGN.md §8).
	updFeature    codec.Codec
	updClassifier codec.Codec

	// roundMachine runs the edge's round over its sampled clients, by the
	// root federator's rules, and with no update it keeps a settled round
	// open (keepEmpty). Its lanes are the run's (buildHier sets them; Init
	// makes a group for a bare edge).
	roundMachine
}

var _ comm.Handler = (*EdgeAggregator)(nil)

// Init prepares the edge's codec streams and an empty round. Call once
// before messages flow.
func (e *EdgeAggregator) Init() {
	e.round = -1
	e.base = nn.Weights{}
	e.self = e.ID
	e.who = fmt.Sprintf("edge %d", e.ID)
	e.onClose = e.flush
	e.keepEmpty = true
	e.codec = e.Codec
	e.bw = e.BW
	e.logf = e.Logf
	e.trace = e.Trace
	// An edge passes no mode: the root already counts the notices the router
	// copies to it.
	e.initRound("")
	e.updFeature, e.updClassifier = e.Codec, e.Codec
	if e.Codec != nil && e.Codec.Name() == codec.TopK {
		e.updFeature = codec.NewResidual(e.Codec)
		e.updClassifier = codec.NewResidual(e.Codec)
	}
}

// OnRejoin implements the chaos rejoin handshake: the crash wiped the open
// round and the residual streams, so hand back what the round held,
// re-derive both from static config and idle until the root's next
// dispatch.
func (e *EdgeAggregator) OnRejoin(env comm.Env) {
	e.release()
	e.Init()
	e.Trace.Record(env.Now(), e.ID, -1, trace.NodeRejoin, "edge state re-seeded")
}

// OnMessage implements comm.Handler. The root's dispatch opens the edge's
// round; the rest is the round's traffic.
func (e *EdgeAggregator) OnMessage(env comm.Env, msg comm.Message) {
	switch msg.Kind {
	case comm.KindTrain:
		p, ok := msg.Payload.(TrainPayload)
		if !ok {
			e.debugf("bad train payload %T", msg.Payload)
			return
		}
		e.startRound(env, p)
	case comm.KindUpdate:
		if e.onUpdate(env, msg) {
			hier.CountUpdateBytes("edge", msg.Size)
		}
	default:
		e.onMessage(env, msg)
	}
}

// startRound samples the round's sub-cohort and opens the round over it with
// the root's dispatch, the global by reference (TrainPayload.Global), and
// the edge's Timeout and no quorum.
func (e *EdgeAggregator) startRound(env comm.Env, p TrainPayload) {
	sampled := e.Sampler.Cohort(p.Config.Round, e.Cohort)
	hier.ObserveCohort(len(sampled))
	e.Trace.Record(env.Now(), e.ID, p.Config.Round, trace.RoundStart,
		fmt.Sprintf("edge cohort %d/%d sampled", len(sampled), len(e.Cohort)))
	e.open(env, sampled, p, e.Timeout)
}

// flush is the edge's close: it combines the arrived updates, in arrival
// order (the tiered model's bits depend on it), into one upstream aggregate.
// With nothing arrived the edge sends nothing — the root's round timeout
// and quorum grace decide what to do about a silent edge.
func (e *EdgeAggregator) flush(env comm.Env) {
	// The round is closed: nothing reads the updates after this call.
	defer e.release()
	if len(e.arrived) == 0 {
		return
	}
	updates := e.collect(e.arrived)
	// The aggregate is accumulated in a leased pair: shipped raw it is the
	// root's to return, encoded it goes back once the bytes are out.
	agg, err := weightedAverageInto(e.lanes.takeWeights(), updates)
	if err != nil {
		e.debugf("aggregate: %v", err)
		return
	}
	samples := 0
	var steps float64
	for _, u := range updates {
		samples += u.NumSamples
		steps += float64(u.NumSamples) * float64(u.Steps)
	}
	payload := UpdatePayload{Update: Update{
		Client:     e.ID,
		Round:      e.round,
		NumSamples: samples,
		Steps:      max(int(steps/float64(samples)), 1),
	}}
	size := agg.ByteSize()
	if e.Codec == nil {
		payload.Update.Weights = agg
	} else {
		enc, err := encodeWeights(e.Codec.Name(), e.updFeature, e.updClassifier, agg, e.base)
		e.lanes.putWeights(agg)
		if err != nil {
			e.debugf("encode aggregate: %v", err)
			return
		}
		payload.Encoded = enc
		size = enc.WireSize()
	}
	hier.CountUpdateBytes("root", size)
	e.Trace.Record(env.Now(), e.ID, e.round, trace.UpdateSent,
		fmt.Sprintf("aggregate of %d clients, %d samples", len(updates), samples))
	e.BW.send(env, comm.Message{
		To:      comm.FederatorID,
		Round:   e.round,
		Kind:    comm.KindUpdate,
		Size:    size,
		Payload: payload,
	})
}

// hierRootStrategy adapts the configured strategy to the root of a tiered
// federation: the root's "clients" are the edge aggregators, every edge
// participates in every round (sampling happens inside each edge), and the
// offload protocol is off — profiling and peer pairing across a tier
// boundary is future work. Everything else is the strategy's own, so the
// FedAvg-family math is unchanged.
type hierRootStrategy struct {
	Strategy
}

func (s hierRootStrategy) Select(_ int, clients []ClientInfo, _ *tensor.RNG) []comm.NodeID {
	return clientIDs(clients)
}

func (s hierRootStrategy) Offloading() bool { return false }

// sampledStrategy adapts the configured strategy to a flat sampled
// topology (Sample set, Tiers 0): the deterministic sampler narrows the
// population to the round's cohort, then the strategy's own selection runs
// within it. Offloading is off for the same reason as the tiered root —
// unsampled peers are dormant shells.
type sampledStrategy struct {
	Strategy
	sampler hier.Sampler
	// ids is the population's IDs in the federator's client order, listed
	// once at build and read-only: the sampler may return it whole.
	ids []comm.NodeID
}

// Select narrows clients, the population ids lists, to the round's cohort.
// The cohort keeps the population's order, so one walk pairs them up.
func (s sampledStrategy) Select(r int, clients []ClientInfo, rng *tensor.RNG) []comm.NodeID {
	cohort := s.sampler.Cohort(r, s.ids)
	hier.ObserveCohort(len(cohort))
	narrowed := make([]ClientInfo, 0, len(cohort))
	for _, c := range clients {
		if len(narrowed) < len(cohort) && c.ID == cohort[len(narrowed)] {
			narrowed = append(narrowed, c)
		}
	}
	return s.Strategy.Select(r, narrowed, rng)
}

func (s sampledStrategy) Offloading() bool { return false }

// buildHier is Build's scale-out path (Topology.Hier enabled): instead of
// materializing N clients it makes the factory of their lazy shells, the
// edge aggregators that own them, and a root federator whose children are
// the edges (or, with Tiers 0, the sampled population). A hydrated client
// draws its shard at each dispatch from data, the cluster's one Source,
// with its own noise stream (Variant 2+ID; the test set holds Variant 1),
// and holds the shard and a network only from dispatch to update, so the
// build cost and resident memory follow the sampled cohort, not the
// population.
func (t Topology) buildHier(data *dataset.Source, test *dataset.Dataset, phase nn.PhaseCost, wireCodec codec.Codec, bw *Bandwidth, lanes *laneGroup) (*Cluster, error) {
	if t.Async {
		return nil, fmt.Errorf("fl: hierarchical topology does not support the async engine yet")
	}
	if t.DirichletAlpha > 0 {
		return nil, fmt.Errorf("fl: hierarchical topology synthesizes shards per client; Dirichlet partitioning is unsupported (use NonIIDClasses)")
	}
	if t.Strategy.Offloading() {
		return nil, fmt.Errorf("fl: hierarchical topology does not support offloading strategies yet (peer pairing within a cohort is future work)")
	}

	evaluate, err := newEvaluator(t.Arch, t.Backend, test.Inputs(), test.Labels())
	if err != nil {
		return nil, err
	}

	// Client i's speed is the i-th draw of the stream cluster.UniformSpeeds
	// reads, taken in O(1), so no slice of N speeds is held.
	speedRNG := tensor.NewRNG(t.Seed ^ 0x5eed)
	speed := func(id comm.NodeID) float64 { return 0.1 + 0.9*speedRNG.Float64At(uint64(id)) }
	if t.Speeds != nil {
		if len(t.Speeds) != t.Clients {
			return nil, fmt.Errorf("fl: %d speeds for %d clients", len(t.Speeds), t.Clients)
		}
		speed = func(id comm.NodeID) float64 { return t.Speeds[id] }
	}

	samplesPer := t.TrainSamples / t.Clients
	if samplesPer < 1 {
		samplesPer = 1
	}

	numClasses := t.Dataset.Classes()
	hydrate := func(p hier.Profile, cont any, park func(any)) (comm.Handler, error) {
		c := &Client{
			ID:               p.ID,
			Arch:             t.Arch,
			Speed:            p.Speed,
			Jitter:           t.SpeedJitter,
			JitterSeed:       t.Seed,
			Cost:             t.Cost,
			Backend:          t.Backend,
			Codec:            wireCodec,
			BW:               bw,
			ProfilerOverhead: -1,
			Logf:             t.Logf,
			Trace:            t.Trace,
			phase:            phase,
			lanes:            lanes,
			shard: func() (*dataset.Dataset, error) {
				return hierShard(data, lanes, numClasses, p, samplesPer)
			},
			park: park,
		}
		if err := c.Init(); err != nil {
			return nil, err
		}
		c.resume(cont)
		return c, nil
	}

	profile := func(id comm.NodeID) hier.Profile {
		p := hier.Profile{ID: id, Speed: speed(id), Samples: samplesPer}
		if t.NonIIDClasses > 0 {
			// Per-client class skew from a hash-derived stream, so a client's
			// class set depends only on (seed, id) — never on build order or
			// which siblings hydrate.
			rng := tensor.NewRNG(t.Seed ^ 0xc1a55 ^ (uint64(id+1) * 0x9e3779b97f4a7c15))
			perm := rng.Perm(numClasses)
			p.Classes = perm[:min(t.NonIIDClasses, numClasses)]
			sort.Ints(p.Classes)
		}
		return p
	}

	sampler := hier.Sampler{Seed: t.Seed, Fraction: t.Hier.Sample}
	var edges []*EdgeAggregator
	var infos []ClientInfo
	var strategy Strategy
	if t.Hier.Tiers > 0 {
		// An edge keeps its cohort as an ID list, 8 B a client, sized
		// exactly by a first pass over the assignment hash.
		owner := func(id comm.NodeID) int { return hier.Assign(t.Seed, id, t.Hier.Tiers) }
		sizes := make([]int, t.Hier.Tiers)
		for id := range comm.NodeID(t.Clients) {
			sizes[owner(id)]++
		}
		cohorts := make([][]comm.NodeID, t.Hier.Tiers)
		for k := range cohorts {
			cohorts[k] = make([]comm.NodeID, 0, sizes[k])
		}
		for id := range comm.NodeID(t.Clients) {
			k := owner(id)
			cohorts[k] = append(cohorts[k], id)
		}
		for k, cohort := range cohorts {
			if len(cohort) == 0 {
				continue
			}
			e := &EdgeAggregator{
				ID:      hier.EdgeID(k),
				Cohort:  cohort,
				Sampler: sampler,
				Codec:   wireCodec,
				BW:      bw,
				Timeout: t.Chaos.RoundTimeout,
				Logf:    t.Logf,
				Trace:   t.Trace,

				roundMachine: roundMachine{lanes: lanes},
			}
			e.Init()
			edges = append(edges, e)
			infos = append(infos, ClientInfo{ID: e.ID, Samples: len(cohort) * samplesPer, Speed: 1})
		}
		strategy = hierRootStrategy{t.Strategy}
	} else {
		infos = make([]ClientInfo, t.Clients)
		for i := range infos {
			id := comm.NodeID(i)
			infos[i] = ClientInfo{ID: id, Samples: samplesPer, Speed: speed(id)}
		}
		strategy = sampledStrategy{Strategy: t.Strategy, sampler: sampler, ids: clientIDs(infos)}
	}

	fed := &Federator{
		Arch:     t.Arch,
		Strategy: strategy,
		Clients:  infos,
		Local: LocalConfig{
			Epochs:    t.LocalEpochs,
			BatchSize: t.BatchSize,
			LR:        t.LR,
		},
		Rounds:       t.Rounds,
		EvalEvery:    t.EvalEvery,
		Evaluate:     evaluate,
		QuorumFrac:   t.Chaos.Quorum,
		RoundTimeout: t.Chaos.RoundTimeout,
		Seed:         t.Seed,
		Codec:        wireCodec,
		BW:           bw,
		Events:       t.Events,
		Logf:         t.Logf,
		Trace:        t.Trace,
		roundMachine: roundMachine{lanes: lanes},
	}
	if err := fed.Init(); err != nil {
		return nil, err
	}
	return &Cluster{
		Topology:  t,
		Federator: fed,
		Infos:     infos,
		Bandwidth: bw,
		Hier: &HierCluster{Options: t.Hier, Shells: make(map[comm.NodeID]*hier.LazyClient), Edges: edges,
			profile: profile, hydrate: hydrate},
		lanes: lanes,
	}, nil
}

// hierShard synthesizes one client's private shard into sample tensors
// leased from the run's free list; the client hands them back once its
// round's update is sent. Every client draws from the cluster's one Source —
// the class prototypes of the flat build, computed once at Build — with its
// own noise stream (Variant 2+ID), so shards are disjoint by construction
// and deterministic per (seed, id), and a regenerated shard is the one the
// client had. Class-skewed clients over-generate, keep the first `want`
// samples of their class set and return the rest at once.
func hierShard(data *dataset.Source, lanes *laneGroup, numClasses int, p hier.Profile, want int) (*dataset.Dataset, error) {
	n := want
	if len(p.Classes) > 0 && len(p.Classes) < numClasses {
		// Generation is class-balanced, so n*|classes|/numClasses samples
		// survive the filter; double it for slack.
		n = 2 * want * numClasses / len(p.Classes)
	}
	ds, err := data.GenerateInto(lanes.takeSamples(n), 2+uint64(p.ID))
	if err != nil {
		return nil, fmt.Errorf("fl: client %d shard: %w", p.ID, err)
	}
	if len(p.Classes) == 0 || len(p.Classes) >= numClasses {
		return ds, nil
	}
	allowed := make(map[int]bool, len(p.Classes))
	for _, c := range p.Classes {
		allowed[c] = true
	}
	// dropped reuses the draw's array: it never overtakes the loop's index.
	kept, dropped := make([]dataset.Sample, 0, want), ds.Samples[:0]
	for _, s := range ds.Samples {
		if len(kept) < want && allowed[s.Y] {
			kept = append(kept, s)
		} else {
			dropped = append(dropped, s)
		}
	}
	lanes.putSamples(dropped)
	if len(kept) == 0 {
		return nil, fmt.Errorf("fl: client %d shard has no samples of classes %v", p.ID, p.Classes)
	}
	ds.Samples = kept
	return ds, nil
}
