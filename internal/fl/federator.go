package fl

import (
	"fmt"
	"time"

	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/sched"
	"aergia/internal/similarity"
	"aergia/internal/tensor"
	"aergia/internal/trace"
)

// Federator is the central coordinator actor: it selects clients, ships the
// global model, collects online profiles, computes and signs freeze/offload
// schedules (for Aergia), recombines offloaded models, aggregates updates,
// and measures round durations with its own clock.
type Federator struct {
	// Arch is the global model architecture.
	Arch nn.Arch
	// Strategy selects/aggregates and toggles the offloading protocol.
	Strategy Strategy
	// Clients lists all registered clients.
	Clients []ClientInfo
	// Local is the per-round local training config template; Round is
	// stamped per round.
	Local LocalConfig
	// Rounds is the number of global rounds to run.
	Rounds int
	// EvalEvery evaluates test accuracy every k rounds (and always on the
	// final round); 0 defaults to 1.
	EvalEvery int
	// Evaluate computes the global model's test accuracy, on a compute lane
	// (off the federator's goroutine), one call at a time.
	Evaluate func(w nn.Weights) (float64, error)
	// Signer signs schedule envelopes; required when the strategy
	// offloads.
	Signer *sched.Signer
	// Similarity is the enclave-computed EMD matrix (may be nil).
	Similarity similarity.Matrix
	// SimilarityIndex maps client IDs to matrix rows.
	SimilarityIndex map[comm.NodeID]int
	// SimilarityFactor is f in Algorithm 1.
	SimilarityFactor float64
	// Seed drives client selection.
	Seed uint64
	// QuorumFrac is the minimum fraction of the round's selected updates
	// that must be present before a deadline may cut the round. 0 keeps
	// the pure deadline behavior (cut with whatever arrived); under churn
	// it protects the global model from near-empty aggregations.
	QuorumFrac float64
	// RoundTimeout is a fallback per-round deadline applied when the
	// strategy has none. It keeps rounds finite when messages can be lost
	// (a lossy fault plan): without it a dropped train/update message
	// would stall the round forever. 0 disables the fallback.
	RoundTimeout time.Duration
	// Codec decodes encoded client payloads (updates, feature returns)
	// against the round's dispatched base; nil expects raw payloads (the
	// codec-free wire format).
	Codec codec.Codec
	// BW, when set, counts the bytes the federator puts on the wire.
	BW *Bandwidth
	// OnFinish is invoked once all rounds complete.
	OnFinish func(*Results)
	// Events, when set, receives one live obs.RoundEvent per round, fixed
	// as the round finalizes and announced once its evaluation is joined
	// (aergiad streams it to SSE subscribers). Publishing is passive.
	Events *obs.RoundStream
	// Logf, when set, receives debug traces.
	Logf func(format string, args ...any)
	// Trace, when set, records timeline events (Figure 5 style).
	Trace *trace.Log

	// roundMachine runs each round over the selected clients; the close is
	// finalizeRound.
	roundMachine

	global  *nn.Network
	rng     *tensor.RNG
	results *Results
	closing *evaluation // the last close's, joined at the next close
}

var _ comm.Handler = (*Federator)(nil)

// Init builds the global model and internal state. Call once before Start.
func (f *Federator) Init() error {
	if f.Strategy == nil {
		return fmt.Errorf("fl: federator needs a strategy")
	}
	if f.Rounds <= 0 {
		return fmt.Errorf("fl: %d rounds", f.Rounds)
	}
	if f.Strategy.Offloading() && f.Signer == nil {
		return fmt.Errorf("fl: offloading strategy requires a schedule signer")
	}
	global, err := nn.Build(f.Arch, f.Seed)
	if err != nil {
		return fmt.Errorf("fl: global model: %w", err)
	}
	f.global = global
	f.base = global.SnapshotWeights()
	f.rng = tensor.NewRNG(f.Seed ^ 0x5ca1ab1e)
	f.results = &Results{Strategy: f.Strategy.Name()}
	if f.EvalEvery <= 0 {
		f.EvalEvery = 1
	}
	f.self = comm.FederatorID
	f.who = "federator"
	f.onClose = f.finalizeRound
	f.codec = f.Codec
	f.bw = f.BW
	f.logf = f.Logf
	f.trace = f.Trace
	f.quorum = f.QuorumFrac
	if f.Strategy.Offloading() {
		f.signer = f.Signer
		f.schedCfg = sched.Config{
			SimilarityFactor: f.SimilarityFactor,
			Similarity:       f.Similarity,
			Index:            f.SimilarityIndex,
		}
	}
	f.initRound("sync")
	return nil
}

// Start begins round 0. The env must belong to the federator node.
func (f *Federator) Start(env comm.Env) {
	f.round = 0
	f.startRound(env)
}

// Results returns the accumulated experiment results.
func (f *Federator) Results() *Results { return f.results }

// startRound selects the round's clients and opens it over them, with the
// strategy's deadline or the RoundTimeout fallback.
func (f *Federator) startRound(env comm.Env) {
	selected := f.Strategy.Select(f.round, f.Clients, f.rng)
	f.Trace.Record(env.Now(), comm.FederatorID, f.round, trace.RoundStart,
		fmt.Sprintf("%d clients selected", len(selected)))
	// The per-round local training configuration.
	cfg := f.Local
	cfg.Round = f.round
	cfg.Mu = f.Strategy.LocalMu()
	if !f.Strategy.Offloading() {
		cfg.ProfileBatches = 0
	}
	d := f.Strategy.Deadline(f.round)
	if d <= 0 {
		d = f.RoundTimeout
	}
	f.open(env, selected, TrainPayload{Config: cfg, Global: f.base}, d)
}

// OnMessage implements comm.Handler.
func (f *Federator) OnMessage(env comm.Env, msg comm.Message) { f.onMessage(env, msg) }

// finalizeRound recombines offloaded models, aggregates, records stats, and
// starts the next round (or finishes the experiment). The accuracy comes
// from a lane step the next close (or the finish) joins.
func (f *Federator) finalizeRound(env comm.Env) {
	f.closing.settle()
	f.closing = nil
	// Selection order: the flat model's bits depend on it.
	updates := f.collect(f.tracker.members)
	if len(updates) > 0 {
		next, err := f.Strategy.Aggregate(f.base, updates)
		if err != nil {
			f.debugf("aggregate: %v", err)
		} else if err := f.global.LoadWeights(next); err != nil {
			f.debugf("load aggregated: %v", err)
		}
	}
	f.release()
	f.base = f.global.SnapshotWeights()
	stats := RoundStats{
		Round:     f.round,
		Duration:  env.Now() - f.start,
		Accuracy:  -1,
		Completed: len(updates),
		Offloads:  len(f.pairs),
	}
	lastRound := f.round == f.Rounds-1
	m := flm()
	m.rounds.Inc()
	m.roundDur.Observe(stats.Duration.Seconds())
	m.offloads.Add(float64(stats.Offloads))
	var wait time.Duration
	if len(updates) > 0 {
		wait = env.Now() - f.firstUpdateAt
		m.stragglerWait.Observe(wait.Seconds())
	}
	f.Trace.Record(env.Now(), comm.FederatorID, f.round, trace.RoundEnd,
		fmt.Sprintf("duration %v, %d updates, %d offloads",
			stats.Duration, stats.Completed, stats.Offloads))
	ev := f.Events.Resolve(obs.RoundEvent{
		Run:       f.Seed,
		Round:     f.round,
		Accuracy:  stats.Accuracy,
		Cohort:    stats.Completed,
		Duration:  stats.Duration,
		Time:      env.Now(),
		Bytes:     f.BW.Snapshot().TotalBytes,
		Straggler: comm.FederatorID, // unknown here; Resolve names it from the span stream
		Wait:      wait,
	})
	f.results.Rounds = append(f.results.Rounds, stats)
	f.results.TotalTime = f.results.PreTraining + sumDurations(f.results.Rounds)
	if f.Evaluate != nil && (lastRound || f.round%f.EvalEvery == 0) {
		i := len(f.results.Rounds) - 1
		f.closing = launchEvaluation(f.lanes, env.Now(), f.Evaluate, f.base, func(acc float64, err error) {
			if err != nil {
				f.debugf("evaluate: %v", err)
			} else {
				f.results.Rounds[i].Accuracy = acc
				f.results.FinalAccuracy = acc
				ev.Accuracy = acc
			}
			f.Events.Announce(ev)
		})
	} else {
		f.Events.Announce(ev)
	}

	if lastRound {
		f.closing.settle()
		f.closing = nil
		if f.OnFinish != nil {
			f.OnFinish(f.results)
		}
		return
	}
	f.round++
	f.startRound(env)
}

func sumDurations(rounds []RoundStats) time.Duration {
	var total time.Duration
	for _, r := range rounds {
		total += r.Duration
	}
	return total
}
