package fl

import (
	"fmt"
	"math"
	"time"

	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/profile"
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

	global  *nn.Network
	rng     *tensor.RNG
	results *Results
	lanes   *laneGroup  // the run's (Topology.Build), or Init makes one
	closing *evaluation // the last close's, joined at the next close

	// tracker holds the round's selection and who of it still owes an
	// update, and the liveness view the fault notices (comm.KindFault) keep.
	tracker *cohort

	round      int
	roundStart time.Duration
	// roundBase is the one snapshot of the round's global: every dispatch of
	// the round ships it by reference, it is the codec's delta base and
	// Aggregate's prev, and the close that takes the next one evaluates it.
	roundBase    nn.Weights
	reports      map[comm.NodeID]profile.Report
	scheduled    bool
	pairs        map[comm.NodeID]sched.Pair // weak -> pair
	updates      map[comm.NodeID]Update
	features     map[comm.NodeID][]float64 // weak -> trained features
	deadline     comm.Timer
	pastDeadline bool

	// firstUpdateAt is the round's first update-arrival time; the gap to
	// finalizeRound is the straggler wait the metrics expose.
	firstUpdateAt   time.Duration
	haveFirstUpdate bool
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
	f.roundBase = global.SnapshotWeights()
	f.rng = tensor.NewRNG(f.Seed ^ 0x5ca1ab1e)
	f.results = &Results{Strategy: f.Strategy.Name()}
	f.tracker = newCohort("sync")
	if f.EvalEvery <= 0 {
		f.EvalEvery = 1
	}
	if f.lanes == nil {
		f.lanes = newLaneGroup()
	}
	return nil
}

// Start begins round 0. The env must belong to the federator node.
func (f *Federator) Start(env comm.Env) {
	f.round = 0
	f.startRound(env)
}

// Results returns the accumulated experiment results.
func (f *Federator) Results() *Results { return f.results }

// GlobalWeights snapshots the current global model.
func (f *Federator) GlobalWeights() nn.Weights { return f.global.SnapshotWeights() }

func (f *Federator) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

func (f *Federator) startRound(env comm.Env) {
	selected := f.Strategy.Select(f.round, f.Clients, f.rng)
	f.reports = make(map[comm.NodeID]profile.Report, len(selected))
	f.scheduled = false
	f.pairs = make(map[comm.NodeID]sched.Pair)
	f.updates = make(map[comm.NodeID]Update, len(selected))
	f.features = make(map[comm.NodeID][]float64)
	f.pastDeadline = false
	f.haveFirstUpdate = false
	f.roundStart = env.Now()
	f.Trace.Record(env.Now(), comm.FederatorID, f.round, trace.RoundStart,
		fmt.Sprintf("%d clients selected", len(selected)))

	cfg := f.trainConfig()
	f.tracker.openRound(selected, func(id comm.NodeID) { f.dispatchTrain(env, id, cfg) })
	f.deadline = nil
	d := f.Strategy.Deadline(f.round)
	if d <= 0 {
		d = f.RoundTimeout
	}
	if d > 0 {
		round := f.round
		f.deadline = env.After(d, func() { f.onDeadline(env, round, d) })
	} else {
		// Without a deadline the only things that can close the round are
		// update arrivals and fault notifications. If the whole selection
		// is already down (a full blackout), neither will ever come —
		// complete the round now instead of wedging forever.
		f.maybeFinalize(env)
	}
}

// trainConfig stamps the per-round local training configuration.
func (f *Federator) trainConfig() LocalConfig {
	cfg := f.Local
	cfg.Round = f.round
	cfg.Mu = f.Strategy.LocalMu()
	if !f.Strategy.Offloading() {
		cfg.ProfileBatches = 0
	}
	return cfg
}

// dispatchTrain ships the round's global snapshot, by reference, and the
// round config to one client: the selection at startRound, a re-enrolled
// client at its rejoin.
func (f *Federator) dispatchTrain(env comm.Env, id comm.NodeID, cfg LocalConfig) {
	f.BW.send(env, comm.Message{
		To:      id,
		Round:   f.round,
		Kind:    comm.KindTrain,
		Size:    f.roundBase.ByteSize(),
		Payload: TrainPayload{Config: cfg, Global: f.roundBase},
	})
}

// onDeadline cuts the round when its deadline fires. With a quorum
// configured, a below-quorum round is held open for one grace period (the
// same duration) and cut the moment the quorum-th update lands — or
// unconditionally when the grace period also expires, so a run whose
// updates were lost on a lossy link can never wedge a round forever.
func (f *Federator) onDeadline(env comm.Env, round int, d time.Duration) {
	if f.round != round || !f.tracker.open {
		return
	}
	f.logf("federator: round %d deadline fired with %d/%d updates",
		round, len(f.updates), len(f.tracker.members))
	if len(f.updates) >= f.quorum() || f.pastDeadline {
		f.finalizeRound(env)
		return
	}
	f.pastDeadline = true
	f.logf("federator: round %d below quorum (%d/%d), holding one grace period",
		round, len(f.updates), f.quorum())
	f.deadline = env.After(d, func() { f.onDeadline(env, round, d) })
}

// quorum is the minimum update count a deadline may cut the round at.
func (f *Federator) quorum() int {
	if f.QuorumFrac <= 0 {
		return 0
	}
	n := len(f.tracker.members)
	q := int(math.Ceil(f.QuorumFrac * float64(n)))
	if q > n {
		q = n
	}
	return q
}

// OnMessage implements comm.Handler.
func (f *Federator) OnMessage(env comm.Env, msg comm.Message) {
	if msg.Kind == comm.KindFault {
		// Liveness notifications are round-independent membership state.
		if p, ok := msg.Payload.(comm.FaultPayload); ok {
			f.onFault(env, p)
		}
		return
	}
	if msg.Round != f.round {
		f.logf("federator: ignore %s for round %d (current %d)", msg.Kind, msg.Round, f.round)
		return
	}
	switch msg.Kind {
	case comm.KindProfile:
		p, ok := msg.Payload.(ProfilePayload)
		if !ok || !f.Strategy.Offloading() {
			return
		}
		f.onProfile(env, p.Report)
	case comm.KindUpdate:
		p, ok := msg.Payload.(UpdatePayload)
		if !ok {
			return
		}
		if !f.tracker.expects(p.Update.Client) {
			f.logf("federator: update from %d, which owes none", p.Update.Client)
			return
		}
		u, err := decodeUpdate(f.Codec, p, &f.roundBase, f.lanes)
		if err != nil {
			f.logf("federator: update from %d: %v", p.Update.Client, err)
			return
		}
		f.tracker.deliver(u.Client)
		if !f.haveFirstUpdate {
			f.haveFirstUpdate = true
			f.firstUpdateAt = env.Now()
		}
		f.updates[u.Client] = u
		f.maybeFinalize(env)
	case comm.KindOffloadResult:
		p, ok := msg.Payload.(OffloadResultPayload)
		if !ok {
			return
		}
		if pair, exists := f.pairs[p.Weak]; !exists || pair.Strong != p.Strong {
			f.logf("federator: unexpected offload result weak=%d strong=%d", p.Weak, p.Strong)
			return
		}
		feature := p.Feature
		if !p.Encoded.IsZero() {
			if f.Codec == nil || p.Encoded.Codec != f.Codec.Name() {
				f.logf("federator: offload result codec mismatch from %d", p.Strong)
				return
			}
			var err error
			if feature, err = decodeSection(f.Codec, p.Encoded.Feature, f.roundBase.Feature, nil); err != nil {
				f.logf("federator: decode offload result from %d: %v", p.Strong, err)
				return
			}
		}
		f.features[p.Weak] = feature
		f.maybeFinalize(env)
	default:
		f.logf("federator: unexpected message kind %s", msg.Kind)
	}
}

// onProfile collects profiling reports; scheduling happens once every
// still-live selected client has reported.
func (f *Federator) onProfile(env comm.Env, r profile.Report) {
	if err := r.Validate(); err != nil {
		f.logf("federator: invalid report from %d: %v", r.ClientID, err)
		return
	}
	if !f.tracker.member(r.ClientID) || f.scheduled {
		return
	}
	f.reports[r.ClientID] = r
	f.maybeSchedule(env)
}

// maybeSchedule computes and distributes the signed freeze/offload schedule
// once reports from every live selected client are in. Clients lost to the
// round are excluded — a crash that removes the last missing reporter
// triggers scheduling over the survivors (onFault re-checks).
func (f *Federator) maybeSchedule(env comm.Env) {
	if f.scheduled || !f.Strategy.Offloading() {
		return
	}
	perfs := make([]sched.Perf, 0, len(f.reports))
	for _, id := range f.tracker.members {
		if f.tracker.lost(id) {
			continue
		}
		rep, ok := f.reports[id]
		if !ok {
			return // a live client has not reported yet
		}
		perfs = append(perfs, sched.Perf{
			ID:        id,
			T123:      rep.Tasks123(),
			T4:        rep.Task4(),
			Remaining: rep.Remaining,
		})
	}
	if len(perfs) == 0 {
		return
	}
	f.scheduled = true
	schedule, err := sched.Compute(f.round, perfs, sched.Config{
		SimilarityFactor: f.SimilarityFactor,
		Similarity:       f.Similarity,
		Index:            f.SimilarityIndex,
	})
	if err != nil {
		f.logf("federator: schedule: %v", err)
		return
	}
	for _, pair := range schedule.Pairs {
		f.pairs[pair.Weak] = pair
		weakDir := sched.Directive{
			Client:           pair.Weak,
			Round:            f.round,
			Role:             sched.RoleOffload,
			Peer:             pair.Strong,
			OffloadAfter:     pair.OffloadAfter,
			OffloadedUpdates: pair.OffloadedUpdates,
		}
		strongDir := sched.Directive{
			Client:           pair.Strong,
			Round:            f.round,
			Role:             sched.RoleReceive,
			Peer:             pair.Weak,
			OffloadAfter:     pair.OffloadAfter,
			OffloadedUpdates: pair.OffloadedUpdates,
		}
		f.Trace.Record(env.Now(), comm.FederatorID, f.round, trace.ScheduleSent,
			fmt.Sprintf("weak %d -> strong %d after %d updates",
				pair.Weak, pair.Strong, pair.OffloadAfter))
		for _, d := range []sched.Directive{weakDir, strongDir} {
			envlp, err := f.Signer.Sign(d)
			if err != nil {
				f.logf("federator: sign directive: %v", err)
				return
			}
			f.BW.send(env, comm.Message{
				To:      d.Client,
				Round:   f.round,
				Kind:    comm.KindSchedule,
				Size:    256,
				Payload: SchedulePayload{Envelope: envlp},
			})
		}
	}
}

// maybeFinalize completes the round once every expected piece arrived.
// Clients written off owe nothing; past a below-quorum deadline the round
// cuts the moment the quorum-th update lands.
func (f *Federator) maybeFinalize(env comm.Env) {
	if !f.tracker.open {
		return
	}
	if f.pastDeadline {
		// Past a below-quorum deadline the round cuts at the quorum-th
		// update, or when quorum became unreachable (holding on would
		// wedge the round).
		if len(f.updates) >= f.quorum() || f.tracker.settled() {
			f.finalizeRound(env)
		}
		return
	}
	if !f.tracker.settled() {
		return
	}
	for weak := range f.pairs {
		if _, ok := f.features[weak]; ok {
			continue
		}
		if u, ok := f.updates[weak]; ok && !u.Partial {
			// The weak client completed before the directive reached it —
			// possible on wall-clock transports, where delivery latency is
			// physical. Its full update supersedes the offload, so no
			// feature section is owed for this pair.
			continue
		}
		return
	}
	f.finalizeRound(env)
}

// onFault folds a liveness notification into the round (the tracker's
// rules, DESIGN.md §7): a crashed client is written off for the current
// round, offload pairs whose helper died are reassigned to a live strong
// client, and the round re-checks both scheduling and completion — the
// crash may have been the one thing the round was waiting on. A rejoining
// client the tracker re-enrols gets a fresh dispatch: the rejoin handshake
// re-seeded its actor state, so it restarts cleanly mid-round.
func (f *Federator) onFault(env comm.Env, p comm.FaultPayload) {
	if !p.Down {
		reenrol := f.tracker.rejoin(p.Node)
		f.logf("federator: client %d rejoined", p.Node)
		f.Trace.Record(env.Now(), comm.FederatorID, f.round, trace.NodeRejoin,
			fmt.Sprintf("client %d rejoined", p.Node))
		if reenrol {
			f.dispatchTrain(env, p.Node, f.trainConfig())
		}
		return
	}
	f.tracker.crash(p.Node)
	f.Trace.Record(env.Now(), comm.FederatorID, f.round, trace.NodeCrash,
		fmt.Sprintf("client %d crashed", p.Node))
	if !f.tracker.open || !f.tracker.member(p.Node) {
		return
	}
	// Weak side: if the crashed client owes its (partial) update, the pair
	// is moot — nothing remains to recombine.
	if _, isWeak := f.pairs[p.Node]; isWeak {
		if u, ok := f.updates[p.Node]; !ok || !u.Partial {
			if _, got := f.features[p.Node]; !got {
				delete(f.pairs, p.Node)
			}
		}
	}
	// Strong side: reassign pending offloads whose helper died.
	for weak, pair := range f.pairs {
		if pair.Strong != p.Node {
			continue
		}
		if _, got := f.features[weak]; got {
			continue
		}
		f.reassignOffload(env, weak, pair)
	}
	f.maybeSchedule(env)
	f.maybeFinalize(env)
}

// reassignOffload repoints a pending offload pair at a live helper after
// the matched strong client crashed: the federator signs fresh directives —
// RoleReceive to the new helper, RoleOffload to the weak client, which
// re-ships its frozen model (the feature section is immutable once frozen,
// so the re-sent snapshot equals the lost one). With no live candidate the
// pair is dropped and the weak client's partial update aggregates with its
// frozen (stale) feature section.
func (f *Federator) reassignOffload(env comm.Env, weak comm.NodeID, pair sched.Pair) {
	if f.tracker.lost(weak) {
		delete(f.pairs, weak)
		return
	}
	var strong comm.NodeID
	found := false
	for _, id := range f.tracker.members {
		// A member that is down has been written off.
		if id == weak || id == pair.Strong || f.tracker.lost(id) {
			continue
		}
		// Skip clients on either side of any pair this round: a weak
		// client cannot help, and a strong client runs at most one helper
		// job per round (helperActive), so handing it a second pair would
		// leave that pair's features unfulfillable.
		if _, isWeak := f.pairs[id]; isWeak {
			continue
		}
		busy := false
		for w2, p2 := range f.pairs {
			if p2.Strong == id && w2 != weak {
				busy = true
				break
			}
		}
		if busy {
			continue
		}
		strong, found = id, true
		break
	}
	if !found {
		f.logf("federator: no live helper for weak %d (strong %d crashed); dropping pair",
			weak, pair.Strong)
		delete(f.pairs, weak)
		return
	}
	newPair := pair
	newPair.Strong = strong
	f.pairs[weak] = newPair
	flm().reassigned.Inc()
	f.Trace.Record(env.Now(), comm.FederatorID, f.round, trace.OffloadReassigned,
		fmt.Sprintf("weak %d: strong %d -> %d", weak, pair.Strong, strong))
	for _, d := range []sched.Directive{
		{
			Client:           weak,
			Round:            f.round,
			Role:             sched.RoleOffload,
			Peer:             strong,
			OffloadAfter:     newPair.OffloadAfter,
			OffloadedUpdates: newPair.OffloadedUpdates,
		},
		{
			Client:           strong,
			Round:            f.round,
			Role:             sched.RoleReceive,
			Peer:             weak,
			OffloadAfter:     newPair.OffloadAfter,
			OffloadedUpdates: newPair.OffloadedUpdates,
		},
	} {
		envlp, err := f.Signer.Sign(d)
		if err != nil {
			f.logf("federator: sign reassignment: %v", err)
			return
		}
		f.BW.send(env, comm.Message{
			To:      d.Client,
			Round:   f.round,
			Kind:    comm.KindSchedule,
			Size:    256,
			Payload: SchedulePayload{Envelope: envlp},
		})
	}
}

// finalizeRound recombines offloaded models, aggregates, records stats, and
// starts the next round (or finishes the experiment). The accuracy comes
// from a lane step the next close (or the finish) joins.
func (f *Federator) finalizeRound(env comm.Env) {
	f.closing.settle()
	f.closing = nil
	f.tracker.closeRound()
	if f.deadline != nil {
		f.deadline.Cancel()
		f.deadline = nil
	}
	updates := make([]Update, 0, len(f.updates))
	for _, id := range f.tracker.members {
		u, ok := f.updates[id]
		if !ok {
			continue // dropped by deadline
		}
		if feat, offloaded := f.features[id]; offloaded && u.Partial {
			// Recombine: feature section from the strong client, classifier
			// from the weak client (paper §3.3, model aggregation).
			u.Weights = nn.Weights{Feature: feat, Classifier: u.Weights.Classifier}
		}
		updates = append(updates, u)
	}
	if len(updates) > 0 {
		next, err := f.Strategy.Aggregate(f.roundBase, updates)
		if err != nil {
			f.logf("federator: aggregate: %v", err)
		} else if err := f.global.LoadWeights(next); err != nil {
			f.logf("federator: load aggregated: %v", err)
		}
	}
	// Nothing reads the round's updates any more, and the federator owns
	// every one of them (decodeUpdate). A recombined update goes back as
	// the pair it was aggregated as — the helper's features, the weak
	// client's classifier — so the free list holds only whole pairs, and
	// the weak client's frozen features are garbage.
	for _, u := range updates {
		f.lanes.putWeights(u.Weights)
	}
	clear(f.updates)
	f.roundBase = f.global.SnapshotWeights()
	stats := RoundStats{
		Round:     f.round,
		Duration:  env.Now() - f.roundStart,
		Accuracy:  -1,
		Completed: len(updates),
		Offloads:  len(f.pairs),
	}
	lastRound := f.round == f.Rounds-1
	m := flm()
	m.rounds.Inc()
	m.roundDur.Observe(stats.Duration.Seconds())
	m.offloads.Add(float64(stats.Offloads))
	if f.haveFirstUpdate {
		m.stragglerWait.Observe((env.Now() - f.firstUpdateAt).Seconds())
	}
	f.Trace.Record(env.Now(), comm.FederatorID, f.round, trace.RoundEnd,
		fmt.Sprintf("duration %v, %d updates, %d offloads",
			stats.Duration, stats.Completed, stats.Offloads))
	var wait time.Duration
	if f.haveFirstUpdate {
		wait = env.Now() - f.firstUpdateAt
	}
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
		f.closing = launchEvaluation(f.lanes, env.Now(), f.Evaluate, f.roundBase, func(acc float64, err error) {
			if err != nil {
				f.logf("federator: evaluate: %v", err)
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
