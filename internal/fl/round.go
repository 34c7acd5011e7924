package fl

import (
	"fmt"
	"math"
	"time"

	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/nn"
	"aergia/internal/profile"
	"aergia/internal/sched"
	"aergia/internal/trace"
)

// roundMachine is the one synchronous round (DESIGN.md §7): the root
// Federator and every EdgeAggregator embed it, and only their close
// differs. It opens a round over a member list, dispatches the round's
// TrainPayload by reference and arms the deadline; takes each member's
// first update, decoded into a pair it owns, in arrival order; folds the
// liveness notices in by the cohort tracker's rules; runs Aergia's profile
// → schedule → signed directives → reassignment when offloading is on; and
// cuts the round once nothing more is owed, or at the deadline with the
// quorum grace, by calling the owner's close. The close reads the updates
// through collect and hands them back through release.
type roundMachine struct {
	// Copied from the owner's fields at its Init, and read-only after.
	self      comm.NodeID // whose timeline the round's events go on
	who       string      // the debug traces' prefix
	codec     codec.Codec // decodes updates and features against base
	bw        *Bandwidth
	logf      func(format string, args ...any)
	trace     *trace.Log
	quorum    float64 // QuorumFrac
	onClose   func(env comm.Env)
	signer    *sched.Signer // set: run the Aergia protocol with schedCfg
	schedCfg  sched.Config
	keepEmpty bool // hold a settled round with no update open (the edge)

	// lanes is the run's lane group, whose free list the updates' vectors
	// are leased from and returned to.
	lanes *laneGroup
	// tracker holds the round's members, who of them still owes an update,
	// and the liveness view the fault notices (comm.KindFault) keep.
	tracker *cohort

	round int
	start time.Duration
	cfg   LocalConfig
	// base is the one snapshot of the round's global: every dispatch of the
	// round ships it by reference, and it is the codec's delta base.
	base nn.Weights
	// updates are the members' first updates, each a pair the machine owns
	// (decodeUpdate); arrived lists their senders in arrival order.
	updates  map[comm.NodeID]Update
	arrived  []comm.NodeID
	deadline comm.Timer
	// pastDeadline: a below-quorum deadline fired and the grace runs.
	pastDeadline bool
	// firstUpdateAt is the round's first update-arrival time; the gap to the
	// close is the straggler wait the metrics expose.
	firstUpdateAt time.Duration

	reports   map[comm.NodeID]profile.Report
	scheduled bool
	pairs     map[comm.NodeID]sched.Pair // weak -> pair
	features  map[comm.NodeID][]float64  // weak -> trained features
}

// initRound readies the machine's per-round state; the owner's Init calls
// it after setting the configuration fields.
func (r *roundMachine) initRound(mode string) {
	r.tracker = newCohort(mode)
	if r.lanes == nil {
		r.lanes = newLaneGroup()
	}
	if r.updates == nil {
		r.updates = make(map[comm.NodeID]Update)
		r.reports = make(map[comm.NodeID]profile.Report)
		r.pairs = make(map[comm.NodeID]sched.Pair)
		r.features = make(map[comm.NodeID][]float64)
	}
}

func (r *roundMachine) debugf(format string, args ...any) {
	if r.logf != nil {
		r.logf(r.who+": "+format, args...)
	}
}

// open starts round p.Config.Round over members: it drops what the last
// round still holds, dispatches p to each member that is up, and arms the
// deadline d (0 arms none).
func (r *roundMachine) open(env comm.Env, members []comm.NodeID, p TrainPayload, d time.Duration) {
	r.release()
	r.round = p.Config.Round
	r.cfg = p.Config
	r.base = p.Global
	clear(r.reports)
	clear(r.pairs)
	clear(r.features)
	r.scheduled = false
	r.pastDeadline = false
	r.start = env.Now()
	r.tracker.openRound(members, func(id comm.NodeID) { r.dispatch(env, id) })
	if d > 0 {
		round := r.round
		r.deadline = env.After(d, func() { r.onDeadline(env, round, d) })
	} else {
		// Without a deadline the only things that can close the round are
		// update arrivals and fault notifications. If the whole selection
		// is already down (a full blackout), neither will ever come —
		// complete the round now instead of wedging forever.
		r.maybeClose(env)
	}
}

// dispatch ships the round's global snapshot, by reference, and the round
// config to one member: the members at the open, a re-enrolled one at its
// rejoin.
func (r *roundMachine) dispatch(env comm.Env, id comm.NodeID) {
	r.bw.send(env, comm.Message{
		To:      id,
		Round:   r.round,
		Kind:    comm.KindTrain,
		Size:    r.base.ByteSize(),
		Payload: TrainPayload{Config: r.cfg, Global: r.base},
	})
}

// onDeadline cuts the round when its deadline fires. With a quorum
// configured, a below-quorum round is held open for one grace period (the
// same duration) and cut the moment the quorum-th update lands — or
// unconditionally when the grace period also expires, so a run whose
// updates were lost on a lossy link can never wedge a round forever.
func (r *roundMachine) onDeadline(env comm.Env, round int, d time.Duration) {
	if r.round != round || !r.tracker.open {
		return
	}
	r.debugf("round %d deadline fired with %d/%d updates", round, len(r.updates), len(r.tracker.members))
	if len(r.updates) >= r.quorumSize() || r.pastDeadline {
		r.cut(env)
		return
	}
	r.pastDeadline = true
	r.debugf("round %d below quorum (%d/%d), holding one grace period", round, len(r.updates), r.quorumSize())
	r.deadline = env.After(d, func() { r.onDeadline(env, round, d) })
}

// quorumSize is the minimum update count a deadline may cut the round at.
func (r *roundMachine) quorumSize() int {
	if r.quorum <= 0 {
		return 0
	}
	n := len(r.tracker.members)
	return min(int(math.Ceil(r.quorum*float64(n))), n)
}

// onMessage takes the round's traffic: liveness notices, which are
// round-independent membership state, and the current round's profiles,
// updates and offload results.
func (r *roundMachine) onMessage(env comm.Env, msg comm.Message) {
	if msg.Kind == comm.KindFault {
		if p, ok := msg.Payload.(comm.FaultPayload); ok {
			r.onFault(env, p)
		}
		return
	}
	if msg.Round != r.round {
		r.debugf("ignore %s for round %d (current %d)", msg.Kind, msg.Round, r.round)
		return
	}
	switch msg.Kind {
	case comm.KindProfile:
		if p, ok := msg.Payload.(ProfilePayload); ok && r.signer != nil {
			r.onProfile(env, p.Report)
		}
	case comm.KindUpdate:
		r.onUpdate(env, msg)
	case comm.KindOffloadResult:
		p, ok := msg.Payload.(OffloadResultPayload)
		if !ok {
			return
		}
		if pair, exists := r.pairs[p.Weak]; !exists || pair.Strong != p.Strong {
			r.debugf("unexpected offload result weak=%d strong=%d", p.Weak, p.Strong)
			return
		}
		feature := p.Feature
		if !p.Encoded.IsZero() {
			if r.codec == nil || p.Encoded.Codec != r.codec.Name() {
				r.debugf("offload result codec mismatch from %d", p.Strong)
				return
			}
			var err error
			if feature, err = decodeSection(r.codec, p.Encoded.Feature, r.base.Feature, nil); err != nil {
				r.debugf("decode offload result from %d: %v", p.Strong, err)
				return
			}
		}
		r.features[p.Weak] = feature
		r.maybeClose(env)
	default:
		r.debugf("unexpected message kind %s", msg.Kind)
	}
}

// onUpdate takes a member's first update of the current round, decoded
// against the round's base into a pair the machine owns. It reports whether
// the round owed the update, decoded or not: the bytes crossed the link.
func (r *roundMachine) onUpdate(env comm.Env, msg comm.Message) bool {
	p, ok := msg.Payload.(UpdatePayload)
	if !ok || msg.Round != r.round {
		return false
	}
	if !r.tracker.expects(p.Update.Client) {
		r.debugf("update from %d, which owes none", p.Update.Client)
		return false
	}
	u, err := decodeUpdate(r.codec, p, &r.base, r.lanes)
	if err != nil {
		r.debugf("update from %d: %v", p.Update.Client, err)
		return true
	}
	r.tracker.deliver(u.Client)
	if len(r.arrived) == 0 {
		r.firstUpdateAt = env.Now()
	}
	r.updates[u.Client] = u
	r.arrived = append(r.arrived, u.Client)
	r.maybeClose(env)
	return true
}

// onProfile collects profiling reports; scheduling happens once every
// still-live member has reported.
func (r *roundMachine) onProfile(env comm.Env, rep profile.Report) {
	if err := rep.Validate(); err != nil {
		r.debugf("invalid report from %d: %v", rep.ClientID, err)
		return
	}
	if !r.tracker.member(rep.ClientID) || r.scheduled {
		return
	}
	r.reports[rep.ClientID] = rep
	r.maybeSchedule(env)
}

// maybeSchedule computes and distributes the signed freeze/offload schedule
// once reports from every live member are in. Members lost to the round are
// excluded — a crash that removes the last missing reporter triggers
// scheduling over the survivors (onFault re-checks).
func (r *roundMachine) maybeSchedule(env comm.Env) {
	if r.scheduled || r.signer == nil {
		return
	}
	perfs := make([]sched.Perf, 0, len(r.reports))
	for _, id := range r.tracker.members {
		if r.tracker.lost(id) {
			continue
		}
		rep, ok := r.reports[id]
		if !ok {
			return // a live member has not reported yet
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
	r.scheduled = true
	schedule, err := sched.Compute(r.round, perfs, r.schedCfg)
	if err != nil {
		r.debugf("schedule: %v", err)
		return
	}
	for _, pair := range schedule.Pairs {
		r.pairs[pair.Weak] = pair
		r.trace.Record(env.Now(), r.self, r.round, trace.ScheduleSent,
			fmt.Sprintf("weak %d -> strong %d after %d updates",
				pair.Weak, pair.Strong, pair.OffloadAfter))
		if !r.direct(env, pair) {
			return
		}
	}
}

// direct signs and sends a pair's two directives: RoleOffload to the weak
// member, RoleReceive to its helper. It reports whether both went out.
func (r *roundMachine) direct(env comm.Env, pair sched.Pair) bool {
	weakDir := sched.Directive{
		Client:           pair.Weak,
		Round:            r.round,
		Role:             sched.RoleOffload,
		Peer:             pair.Strong,
		OffloadAfter:     pair.OffloadAfter,
		OffloadedUpdates: pair.OffloadedUpdates,
	}
	strongDir := weakDir
	strongDir.Client = pair.Strong
	strongDir.Role = sched.RoleReceive
	strongDir.Peer = pair.Weak
	for _, d := range []sched.Directive{weakDir, strongDir} {
		envlp, err := r.signer.Sign(d)
		if err != nil {
			r.debugf("sign directive: %v", err)
			return false
		}
		r.bw.send(env, comm.Message{
			To:      d.Client,
			Round:   r.round,
			Kind:    comm.KindSchedule,
			Size:    256,
			Payload: SchedulePayload{Envelope: envlp},
		})
	}
	return true
}

// maybeClose cuts the round once every expected piece arrived. Members
// written off owe nothing; past a below-quorum deadline the round cuts the
// moment the quorum-th update lands.
func (r *roundMachine) maybeClose(env comm.Env) {
	if !r.tracker.open {
		return
	}
	if r.pastDeadline {
		// Past a below-quorum deadline the round cuts at the quorum-th
		// update, or when quorum became unreachable (holding on would
		// wedge the round).
		if len(r.updates) >= r.quorumSize() || r.tracker.settled() {
			r.cut(env)
		}
		return
	}
	if !r.tracker.settled() || r.keepEmpty && len(r.updates) == 0 {
		return
	}
	for weak := range r.pairs {
		if _, ok := r.features[weak]; ok {
			continue
		}
		if u, ok := r.updates[weak]; ok && !u.Partial {
			// The weak client completed before the directive reached it —
			// possible on wall-clock transports, where delivery latency is
			// physical. Its full update supersedes the offload, so no
			// feature section is owed for this pair.
			continue
		}
		return
	}
	r.cut(env)
}

// cut ends the round's intake and hands it to the owner's close, which
// ends with release.
func (r *roundMachine) cut(env comm.Env) {
	r.tracker.closeRound()
	r.onClose(env)
}

// onFault folds a liveness notice into the round (the tracker's rules,
// DESIGN.md §7): a crashed member is written off for the current round,
// offload pairs whose helper died are reassigned to a live strong member,
// and the round re-checks both scheduling and completion — the crash may
// have been the one thing the round was waiting on. A rejoining member the
// tracker re-enrols gets a fresh dispatch: the rejoin handshake re-seeded
// its actor state, so it restarts cleanly mid-round.
func (r *roundMachine) onFault(env comm.Env, p comm.FaultPayload) {
	if !p.Down {
		reenrol := r.tracker.rejoin(p.Node)
		r.debugf("client %d rejoined", p.Node)
		r.trace.Record(env.Now(), r.self, r.round, trace.NodeRejoin,
			fmt.Sprintf("client %d rejoined", p.Node))
		if reenrol {
			r.dispatch(env, p.Node)
		}
		return
	}
	r.tracker.crash(p.Node)
	r.trace.Record(env.Now(), r.self, r.round, trace.NodeCrash,
		fmt.Sprintf("client %d crashed", p.Node))
	if !r.tracker.open || !r.tracker.member(p.Node) {
		return
	}
	// Weak side: if the crashed client owes its (partial) update, the pair
	// is moot — nothing remains to recombine.
	if _, isWeak := r.pairs[p.Node]; isWeak {
		if u, ok := r.updates[p.Node]; !ok || !u.Partial {
			if _, got := r.features[p.Node]; !got {
				delete(r.pairs, p.Node)
			}
		}
	}
	// Strong side: reassign pending offloads whose helper died.
	for weak, pair := range r.pairs {
		if pair.Strong != p.Node {
			continue
		}
		if _, got := r.features[weak]; got {
			continue
		}
		r.reassignOffload(env, weak, pair)
	}
	r.maybeSchedule(env)
	r.maybeClose(env)
}

// reassignOffload repoints a pending offload pair at a live helper after
// the matched strong client crashed: the machine signs fresh directives —
// RoleReceive to the new helper, RoleOffload to the weak client, which
// re-ships its frozen model (the feature section is immutable once frozen,
// so the re-sent snapshot equals the lost one). With no live candidate the
// pair is dropped and the weak client's partial update aggregates with its
// frozen (stale) feature section.
func (r *roundMachine) reassignOffload(env comm.Env, weak comm.NodeID, pair sched.Pair) {
	if r.tracker.lost(weak) {
		delete(r.pairs, weak)
		return
	}
	var strong comm.NodeID
	found := false
candidates:
	for _, id := range r.tracker.members {
		// A member that is down has been written off.
		if id == weak || id == pair.Strong || r.tracker.lost(id) {
			continue
		}
		// Skip clients on either side of any pair this round: a weak
		// client cannot help, and a strong client runs at most one helper
		// job per round (helperActive), so handing it a second pair would
		// leave that pair's features unfulfillable.
		if _, isWeak := r.pairs[id]; isWeak {
			continue
		}
		for w2, p2 := range r.pairs {
			if p2.Strong == id && w2 != weak {
				continue candidates
			}
		}
		strong, found = id, true
		break
	}
	if !found {
		r.debugf("no live helper for weak %d (strong %d crashed); dropping pair", weak, pair.Strong)
		delete(r.pairs, weak)
		return
	}
	newPair := pair
	newPair.Strong = strong
	r.pairs[weak] = newPair
	flm().reassigned.Inc()
	r.trace.Record(env.Now(), r.self, r.round, trace.OffloadReassigned,
		fmt.Sprintf("weak %d: strong %d -> %d", weak, pair.Strong, strong))
	r.direct(env, newPair)
}

// collect lists the round's updates in order, skipping members with none.
// An offloaded weak update is recombined — feature section from the helper,
// classifier from the weak client (paper §3.3, model aggregation) — and
// stored back, so that release returns the pair that was aggregated.
func (r *roundMachine) collect(order []comm.NodeID) []Update {
	updates := make([]Update, 0, len(r.updates))
	for _, id := range order {
		u, ok := r.updates[id]
		if !ok {
			continue // dropped by the deadline
		}
		if feat, offloaded := r.features[id]; offloaded && u.Partial {
			u.Weights = nn.Weights{Feature: feat, Classifier: u.Weights.Classifier}
			r.updates[id] = u
		}
		updates = append(updates, u)
	}
	return updates
}

// release drops the round's updates, returns every pair the machine owns to
// the run's free list, and disarms the deadline. A recombined pair goes back
// whole — the helper's features, the weak client's classifier — and the
// weak client's frozen features are garbage.
func (r *roundMachine) release() {
	if r.deadline != nil {
		r.deadline.Cancel()
		r.deadline = nil
	}
	for _, id := range r.arrived {
		r.lanes.putWeights(r.updates[id].Weights)
	}
	clear(r.updates)
	r.arrived = r.arrived[:0]
}
