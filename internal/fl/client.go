package fl

import (
	"fmt"
	"sync/atomic"
	"time"

	"aergia/internal/cluster"
	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/nn"
	"aergia/internal/profile"
	"aergia/internal/sched"
	"aergia/internal/tensor"
	"aergia/internal/trace"
)

// Client is the message-driven FL client actor. Model updates are computed
// for real; durations come from the cluster cost model and the client's
// speed, so the same actor runs on virtual time (simulation) or wall time.
type Client struct {
	// ID is the client's node identity.
	ID comm.NodeID
	// Arch builds local model replicas.
	Arch nn.Arch
	// Data is the client's private shard. A hierarchical client holds it for
	// a round only (shard).
	Data *dataset.Dataset
	// Speed is the CPU fraction in (0,1].
	Speed float64
	// Jitter models transient load (collocated applications, §3.1): each
	// round the effective speed is Speed scaled by a uniform factor in
	// [1-Jitter, 1+Jitter], clamped to (0.02, 1]. Zero disables it.
	Jitter float64
	// JitterSeed seeds the per-client jitter stream.
	JitterSeed uint64
	// Cost converts FLOPs into durations.
	Cost cluster.CostModel
	// Backend executes the client's model math; nil means serial. All
	// clients of a run share it, and since their training runs on compute
	// lanes (lane.go) several of them call into it at once — a backend
	// keeps no per-call state of its own (layers bring their Workspace).
	Backend tensor.Backend
	// Codec encodes the client's uplink model payloads (updates, offload
	// shipments, feature returns) as deltas against the round's global
	// base; nil ships raw float64 snapshots (the codec-free wire format).
	Codec codec.Codec
	// BW, when set, counts the bytes this client puts on the wire.
	BW *Bandwidth
	// Verifier checks the federator's signed schedule envelopes.
	Verifier *sched.Verifier
	// ProfilerOverhead is the profiler's per-batch overhead fraction;
	// negative selects the profiler default.
	ProfilerOverhead float64
	// Logf, when set, receives debug traces.
	Logf func(format string, args ...any)
	// Trace, when set, records timeline events (Figure 5 style).
	Trace *trace.Log

	// lease is the round's claim on a model replica (roundNet): the round's
	// first lane step to run takes one from the run's free list, the step
	// that runs its last live-feature batch snapshots the update and hands
	// it back, so a client holds none while its round waits for a lane, once
	// its training is done, or between rounds. A weak client that froze
	// keeps it for a late helper reassignment until the next dispatch, its
	// rejoin or the run's end.
	lease *roundNet
	// phase is the architecture's per-sample phase cost (Topology.Build
	// computes it once for all clients; a bare client computes its own).
	phase     nn.PhaseCost
	jitterRNG *tensor.RNG
	effSpeed  float64
	// base is the round's global model — the shared reference the codec
	// encodes deltas against. updFeature/updClassifier encode the repeated
	// update stream; for sparsifying codecs they carry residual
	// error-feedback state (DESIGN.md §8), so each section owns its own.
	base          nn.Weights
	updFeature    codec.Codec
	updClassifier codec.Codec
	// lanes is the run's lane group (Topology.Build sets it; a bare client
	// makes its own). lane is the round's compute lane, nil until the
	// round launches its first step.
	lanes *laneGroup
	lane  *lane
	// shard, set by a hierarchical build (hierShard), generates Data into
	// sample tensors leased from the run's free list. A client with it holds
	// its shard for a round: startRound draws it when Data is nil, and the
	// round hands it back once its update is sent (endRound). A round cut or
	// crashed keeps it for the next dispatch, or until the rejoin. A flat
	// client's shard is a partition of one dataset and stays for the run.
	shard func() (*dataset.Dataset, error)
	// park, set by a hierarchical build beside shard, hands the client back
	// to its shell with its continuation once a round has ended cleanly
	// (endRound): the shell drops it, and the next dispatch rehydrates it.
	park func(cont any)

	// Per-round state.
	round        int
	cfg          LocalConfig
	batchXs      [][]*tensor.Tensor
	batchYs      [][]int
	totalBatches int
	executed     int // batches of this round handed to the lane
	// The round's futures, each dropped where it is joined: tail is the
	// last training step launched (the finish or final timer joins it),
	// snap the freeze-and-snapshot step (offloadNow joins it).
	tail, snap *step
	// frozenW is the freeze-time snapshot, kept until the round's update
	// is sent: a helper reassigned in between must get the bits the dead
	// one got, and the frozen tail has moved the classifier on by then.
	frozenW    nn.Weights
	frozen     bool
	fullDur    time.Duration
	frozenDur  time.Duration
	bfDur      time.Duration
	trainStart time.Duration
	completion comm.Timer
	offloaded  bool
	// Weak-side offload state; offloadDir.Peer may be repointed by a
	// reassignment directive while the offload is pending or shipped.
	offloadDir       sched.Directive
	offloadRemaining int

	// Strong-side state.
	directive    *sched.Directive
	ownDone      bool
	offloadJob   *OffloadPayload
	helperActive bool
	helper       *step // the helper job; its bfDur timer joins it

	onFinishLaunch func(batches int) // test hook: what finishOwnTraining launches
}

var _ comm.Handler = (*Client)(nil)

// Init derives the client's seed-dependent state: jitter stream, codec
// streams, and the phase costs unless the topology supplied them. It builds
// no network — the round leases one at dispatch. It must be called once
// before the client receives messages.
func (c *Client) Init() error {
	if c.phase == (nn.PhaseCost{}) {
		phase, err := c.Arch.PhaseFLOPs()
		if err != nil {
			return fmt.Errorf("client %d: phase costs: %w", c.ID, err)
		}
		c.phase = phase
	}
	if c.lanes == nil {
		c.lanes = newLaneGroup()
	}
	c.jitterRNG = tensor.NewRNG(c.JitterSeed ^ (uint64(c.ID+1) * 0x9e3779b97f4a7c15))
	c.effSpeed = c.Speed
	c.base = nn.Weights{}
	c.updFeature, c.updClassifier = c.Codec, c.Codec
	if c.residuals() {
		// Sparsified update streams get client-side error feedback: the
		// coordinates a round drops are carried into the next send. One
		// residual per section — the streams must not mix. One-shot
		// shipments (offloads, feature returns) use the bare codec.
		c.updFeature = codec.NewResidual(c.Codec)
		c.updClassifier = codec.NewResidual(c.Codec)
	}
	return nil
}

// residuals reports whether the client's update streams carry residual
// error feedback: a sparsifying codec's do.
func (c *Client) residuals() bool {
	return c.Codec != nil && c.Codec.Name() == codec.TopK
}

// OnRejoin implements the comm.Rejoiner rejoin handshake: a crash wiped
// every piece of in-memory state, so the returning client re-derives its
// jitter stream and codec streams (the residual error feedback dies with
// the crash) from its static, seed-derived configuration (Init) and drops
// all round state — a network the crashed round still held goes back to the
// run's free list; the next round's steps lease one and overwrite it. The
// signed-schedule verifier survives — its replay floor is monotone, so a
// directive replayed across the crash is still rejected. The client then
// idles until the federator's next dispatch enrolls it in a fresh round.
func (c *Client) OnRejoin(env comm.Env) {
	// What the crashed incarnation left on its lane trains the network;
	// dropLane waits out the running batch, then the lease can end.
	c.dropLane()
	c.releaseNet()
	c.lease = nil
	c.dropShard()
	if err := c.Init(); err != nil {
		c.logf("client %d: rejoin init: %v", c.ID, err)
		return
	}
	c.round = -1
	c.cfg = LocalConfig{}
	c.batchXs, c.batchYs = nil, nil
	c.totalBatches, c.executed = 0, 0
	c.frozen, c.offloaded, c.ownDone, c.helperActive = false, false, false, false
	c.offloadDir = sched.Directive{}
	c.offloadRemaining = 0
	c.directive, c.offloadJob = nil, nil
	c.completion = nil
	c.Trace.Record(env.Now(), c.ID, -1, trace.NodeRejoin, "state re-seeded")
}

// roundSpeed draws the effective speed for a new round.
func (c *Client) roundSpeed() float64 {
	if c.Jitter <= 0 {
		return c.Speed
	}
	factor := 1 + c.Jitter*(2*c.jitterRNG.Float64()-1)
	s := c.Speed * factor
	if s < 0.02 {
		s = 0.02
	}
	if s > 1 {
		s = 1
	}
	return s
}

// OnMessage implements comm.Handler.
func (c *Client) OnMessage(env comm.Env, msg comm.Message) {
	switch msg.Kind {
	case comm.KindTrain:
		p, ok := msg.Payload.(TrainPayload)
		if !ok {
			c.logf("client %d: bad train payload %T", c.ID, msg.Payload)
			return
		}
		c.startRound(env, p)
	case comm.KindSchedule:
		p, ok := msg.Payload.(SchedulePayload)
		if !ok {
			return
		}
		c.onSchedule(env, p.Envelope)
	case comm.KindOffload:
		p, ok := msg.Payload.(OffloadPayload)
		if !ok {
			return
		}
		if msg.Round != c.round {
			c.logf("client %d: stale offload for round %d", c.ID, msg.Round)
			return
		}
		c.offloadJob = &p
		c.maybeRunHelper(env)
	default:
		c.logf("client %d: unexpected message kind %s", c.ID, msg.Kind)
	}
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// offloadPayload builds the frozen-model shipment for the current helper:
// without a codec the snapshot itself, by reference — like a dispatched
// global it is never written once sent, and the helper only loads it — and
// the encoded delta against the round base with one. Encoding is one-shot
// and deterministic, so a re-ship after a helper reassignment produces the
// same feature bytes the dead helper received.
func (c *Client) offloadPayload(w nn.Weights, updates int) (OffloadPayload, int, error) {
	if c.Codec == nil {
		return OffloadPayload{Weak: c.ID, Weights: w, Updates: updates}, w.ByteSize(), nil
	}
	enc, err := encodeWeights(c.Codec.Name(), c.Codec, c.Codec, w, c.base)
	if err != nil {
		return OffloadPayload{}, 0, err
	}
	return OffloadPayload{Weak: c.ID, Encoded: enc, Updates: updates}, enc.WireSize(), nil
}

// startRound resets state and begins local training for a new round.
func (c *Client) startRound(env comm.Env, p TrainPayload) {
	if c.completion != nil {
		c.completion.Cancel()
	}
	// A round the federator cut (deadline, FedCS, TiFL) or re-enrolled
	// mid-round may still be training the network LoadWeights overwrites.
	c.dropLane()
	c.round = p.Config.Round
	c.cfg = p.Config
	c.effSpeed = c.roundSpeed()
	c.executed = 0
	c.frozen = false
	c.offloaded = false
	c.offloadDir = sched.Directive{}
	c.offloadRemaining = 0
	c.directive = nil
	c.ownDone = false
	c.offloadJob = nil
	c.helperActive = false
	// A lease the last round kept (it was cut before its last batch, or
	// froze and waited for a helper reassignment) ends here; last in, first
	// out hands it back.
	c.releaseNet()
	opt := nn.NewSGD(p.Config.LR)
	opt.Backend = c.Backend
	if p.Config.Mu > 0 {
		opt.Mu = p.Config.Mu
		opt.SetGlobalReference(p.Global)
	}
	c.lease = &roundNet{group: c.lanes, arch: c.Arch, be: c.Backend, global: p.Global, opt: opt}
	if c.Codec != nil {
		// The dispatched global is the delta base for every encoded payload
		// of this round; the federator (and every peer) holds the same
		// snapshot, so only deltas need to cross the wire.
		c.base = p.Global
	}
	if c.Data == nil {
		var err error
		if c.Data, err = c.shard(); err != nil {
			c.logf("client %d: %v", c.ID, err)
			return
		}
	}
	xs, ys, err := c.Data.Batches(p.Config.BatchSize)
	if err != nil {
		c.logf("client %d: batches: %v", c.ID, err)
		return
	}
	c.batchXs, c.batchYs = xs, ys
	epochs := p.Config.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	c.totalBatches = epochs * len(xs)

	full, err := c.Cost.BatchDuration(c.phase, p.Config.BatchSize, c.effSpeed)
	if err != nil {
		c.logf("client %d: cost model: %v", c.ID, err)
		return
	}
	frozenD, err := c.Cost.FrozenBatchDuration(c.phase, p.Config.BatchSize, c.effSpeed)
	if err != nil {
		c.logf("client %d: cost model: %v", c.ID, err)
		return
	}
	_, _, _, bf, err := c.Cost.PhaseDurations(c.phase, p.Config.BatchSize, c.effSpeed)
	if err != nil {
		c.logf("client %d: cost model: %v", c.ID, err)
		return
	}
	c.fullDur, c.frozenDur, c.bfDur = full, frozenD, bf
	c.trainStart = env.Now()
	c.Trace.Record(env.Now(), c.ID, c.round, trace.TrainStart,
		fmt.Sprintf("%d batches, speed %.2f", c.totalBatches, c.effSpeed))

	profBatches := p.Config.ProfileBatches
	if profBatches >= c.totalBatches {
		profBatches = 0 // nothing left to optimize; skip profiling
	}
	// Inputs are fixed for the whole round unless a directive can still
	// arrive, and none can precede this client's own report: with a
	// profiling window only the window's batches are certain to be full.
	certain := c.totalBatches
	if profBatches > 0 {
		certain = profBatches
		round := c.round
		env.After(c.durationOfBatches(profBatches), func() {
			if c.round != round {
				return
			}
			c.sendProfileReport(env, profBatches)
		})
	}
	c.launchBatches(certain, false, c.trainStart+c.durationOfBatches(certain))
	c.armBoundary(env, certain+1)
	round := c.round
	c.completion = env.After(c.durationOfBatches(c.totalBatches), func() {
		if c.round != round {
			return
		}
		c.finishOwnTraining(env)
	})
}

// armBoundary sets the round's one boundary timer, at the end of batch k-1.
// Reached with no directive seen, batches [executed, k) are certainly full
// (a later RoleOffload freezes after max(OffloadAfter, batchesDoneBy(now))
// >= k; a chaos spike only delays timers): they launch, and the timer
// re-arms for k+1. The last batch is the finish timer's.
func (c *Client) armBoundary(env comm.Env, k int) {
	if k >= c.totalBatches {
		return
	}
	round := c.round
	env.After(c.trainStart+c.durationOfBatches(k)-env.Now(), func() {
		if c.round != round || c.offloaded || c.directive != nil || c.ownDone {
			return
		}
		c.launchBatches(k-c.executed, false, c.trainStart+c.durationOfBatches(k))
		c.armBoundary(env, k+1)
	})
}

// profOverheadFactor returns 1 + the profiler overhead fraction.
func (c *Client) profOverheadFactor() float64 {
	oh := c.ProfilerOverhead
	if oh < 0 {
		oh = profile.DefaultOverheadFraction
	}
	return 1 + oh
}

// durationOfBatches returns the virtual time needed to run the first k full
// batches of the round, accounting for the profiler overhead on the first
// ProfileBatches of them.
func (c *Client) durationOfBatches(k int) time.Duration {
	p := c.cfg.ProfileBatches
	if p > k {
		p = k
	}
	if p < 0 {
		p = 0
	}
	profiled := time.Duration(float64(p) * float64(c.fullDur) * c.profOverheadFactor())
	return profiled + time.Duration(k-p)*c.fullDur
}

// batchesDoneBy inverts durationOfBatches: how many full batches are
// complete after elapsed time.
func (c *Client) batchesDoneBy(elapsed time.Duration) int {
	p := c.cfg.ProfileBatches
	if p < 0 {
		p = 0
	}
	profiledDur := time.Duration(float64(p) * float64(c.fullDur) * c.profOverheadFactor())
	if elapsed <= profiledDur {
		per := time.Duration(float64(c.fullDur) * c.profOverheadFactor())
		if per <= 0 {
			return p
		}
		return int(elapsed / per)
	}
	if c.fullDur <= 0 {
		return c.totalBatches
	}
	done := p + int((elapsed-profiledDur)/c.fullDur)
	if done > c.totalBatches {
		done = c.totalBatches
	}
	return done
}

// sendProfileReport reports the per-phase batch durations measured by the
// online profiler (derived from the cost model, i.e. the client's actual
// current speed) plus the remaining update count.
func (c *Client) sendProfileReport(env comm.Env, profiled int) {
	prof := profile.New(c.ProfilerOverhead)
	ff, fc, bc, bf, err := c.Cost.PhaseDurations(c.phase, c.cfg.BatchSize, c.effSpeed)
	if err != nil {
		c.logf("client %d: profile durations: %v", c.ID, err)
		return
	}
	for i := 0; i < profiled; i++ {
		prof.RecordBatch(ff, fc, bc, bf)
	}
	report, err := prof.Report(c.ID, c.round, c.totalBatches-profiled)
	if err != nil {
		c.logf("client %d: profile report: %v", c.ID, err)
		return
	}
	c.Trace.Record(env.Now(), c.ID, c.round, trace.ProfileSent,
		fmt.Sprintf("full batch %v", report.FullBatch()))
	c.BW.send(env, comm.Message{
		To:      comm.FederatorID,
		Round:   c.round,
		Kind:    comm.KindProfile,
		Size:    128,
		Payload: ProfilePayload{Report: report},
	})
}

// onSchedule handles a signed freeze/offload directive.
func (c *Client) onSchedule(env comm.Env, envlp sched.Envelope) {
	if c.Verifier != nil {
		if err := c.Verifier.Verify(envlp, c.round); err != nil {
			c.logf("client %d: reject schedule: %v", c.ID, err)
			return
		}
	}
	d := envlp.Directive
	if d.Round != c.round || d.Client != c.ID {
		c.logf("client %d: directive mismatch %+v", c.ID, d)
		return
	}
	switch d.Role {
	case sched.RoleOffload:
		if c.offloaded {
			// Reassignment: the federator repointed the offload at a new
			// helper because the matched one crashed. Before the freeze the
			// pending offload simply retargets; after it, re-ship the frozen
			// model — the feature section is immutable once frozen, so the
			// snapshot equals the one the dead helper received.
			if d.Peer != c.offloadDir.Peer {
				c.offloadDir = d
				if c.frozen {
					c.resendOffload(env, d)
				}
			}
			return
		}
		c.beginOffload(env, d)
	case sched.RoleReceive:
		c.directive = &d
		if !c.ownDone && !c.offloaded {
			// A receiver is never told to offload: the rest of its round is
			// full batches.
			c.launchBatches(c.totalBatches-c.executed, false, c.trainStart+c.durationOfBatches(c.totalBatches))
		}
		c.maybeRunHelper(env)
	default:
		c.logf("client %d: unknown role %d", c.ID, d.Role)
	}
}

// resendOffload re-ships the frozen model to a newly assigned helper: the
// freeze-time snapshot while the round's update is still owed, so the new
// helper starts from the bits the dead one received. Once the update is out
// the client has dropped the snapshot and the idle network — a frozen client
// keeps its lease past the update for this — is shipped as it stands.
func (c *Client) resendOffload(env comm.Env, d sched.Directive) {
	w := c.frozenW
	if w.Len() == 0 {
		net := c.lease.net.Load()
		if net == nil {
			c.logf("client %d: no frozen network left to re-ship", c.ID)
			return
		}
		w = net.SnapshotWeights()
	}
	payload, size, err := c.offloadPayload(w, c.offloadRemaining)
	if err != nil {
		c.logf("client %d: encode offload re-ship: %v", c.ID, err)
		return
	}
	c.Trace.Record(env.Now(), c.ID, c.round, trace.OffloadSent,
		fmt.Sprintf("re-sent to client %d, %d updates", d.Peer, c.offloadRemaining))
	c.BW.send(env, comm.Message{
		To:      d.Peer,
		Round:   c.round,
		Kind:    comm.KindOffload,
		Size:    size,
		Payload: payload,
	})
}

// beginOffload implements the weak client's side of Figure 5: finish the
// scheduled number of full updates, freeze the feature layers, ship the
// model to the strong client, and complete the round with the lighter
// frozen procedure.
func (c *Client) beginOffload(env comm.Env, d sched.Directive) {
	if c.offloaded || c.ownDone {
		return // already offloaded or finished; late directive
	}
	c.offloaded = true
	c.offloadDir = d
	if c.completion != nil {
		c.completion.Cancel()
	}
	// The client kept training full batches while waiting for the
	// scheduling decision; it cannot have done fewer than the directive's
	// offload point if the decision arrived late.
	byNow := c.batchesDoneBy(env.Now() - c.trainStart)
	target := d.OffloadAfter
	if byNow > target {
		target = byNow
	}
	if target > c.totalBatches {
		target = c.totalBatches
	}
	readyAt := c.trainStart + c.durationOfBatches(target)
	delay := readyAt - env.Now()
	// The directive fixes the rest of the round: full batches up to the
	// target, the freeze and its snapshot, then the frozen tail. The timers
	// below only join them.
	full := target - c.executed
	if full < 0 {
		c.logf("client %d: offload after %d batches, %d already launched", c.ID, target, c.executed)
		full = 0
	}
	c.launchBatches(full, false, readyAt)
	c.snap = c.launch(readyAt, freezeStep(c.lease))
	tail := c.totalBatches - c.executed
	c.launchBatches(tail, true, readyAt+time.Duration(tail)*c.frozenDur)
	round := c.round
	env.After(delay, func() {
		if c.round != round {
			return
		}
		c.offloadNow(env, target)
	})
}

// offloadNow executes the freeze-and-offload at the moment the target batch
// count completes. The helper identity is read from offloadDir at ship
// time, so a reassignment that lands before the freeze retargets the send.
func (c *Client) offloadNow(env comm.Env, target int) {
	w, err := c.snap.join()
	c.snap = nil
	if err != nil {
		c.logf("client %d: full batches before offload: %v", c.ID, err)
		return
	}
	c.frozen = true
	c.frozenW = w
	remaining := c.totalBatches - target
	c.offloadRemaining = remaining
	c.Trace.Record(env.Now(), c.ID, c.round, trace.ModelFrozen,
		fmt.Sprintf("after %d batches", target))
	payload, size, err := c.offloadPayload(w, remaining)
	if err != nil {
		c.logf("client %d: encode offload: %v", c.ID, err)
		return
	}
	c.Trace.Record(env.Now(), c.ID, c.round, trace.OffloadSent,
		fmt.Sprintf("to client %d, %d updates", c.offloadDir.Peer, remaining))
	c.BW.send(env, comm.Message{
		To:      c.offloadDir.Peer,
		Round:   c.round,
		Kind:    comm.KindOffload,
		Size:    size,
		Payload: payload,
	})
	round := c.round
	env.After(time.Duration(remaining)*c.frozenDur, func() {
		if c.round != round {
			return
		}
		if err := c.joinTraining(); err != nil {
			c.logf("client %d: frozen batches: %v", c.ID, err)
			return
		}
		c.sendUpdate(env, true)
	})
}

// finishOwnTraining completes the round without offloading. A client no
// directive reached has had every batch but the last launched by its
// boundary chain; the last is certain only now.
func (c *Client) finishOwnTraining(env comm.Env) {
	if c.offloaded {
		return
	}
	if c.onFinishLaunch != nil {
		c.onFinishLaunch(c.totalBatches - c.executed)
	}
	c.launchBatches(c.totalBatches-c.executed, false, env.Now())
	if err := c.joinTraining(); err != nil {
		c.logf("client %d: training: %v", c.ID, err)
		return
	}
	c.ownDone = true
	c.sendUpdate(env, false)
	c.maybeRunHelper(env)
	if c.shard != nil {
		// A hierarchical run offloads nothing: no helper job reads the
		// batches after the update.
		c.endRound()
	}
}

// sendUpdate ships the trained model to the federator.
func (c *Client) sendUpdate(env comm.Env, partial bool) {
	detail := "full model"
	if partial {
		detail = "classifier only (features offloaded)"
	}
	c.Trace.Record(env.Now(), c.ID, c.round, trace.UpdateSent, detail)
	c.frozenW = nn.Weights{}
	// The tail step is joined. A round whose features stayed live took the
	// snapshot in it and handed the network back; a frozen client keeps the
	// network for a re-ship (resendOffload) and snapshots it here.
	w := c.lease.upd
	c.lease.upd = nn.Weights{}
	if c.frozen {
		net := c.lease.net.Load()
		if net == nil {
			c.logf("client %d: no frozen network left to send", c.ID)
			return
		}
		w = c.lease.snapshot(net)
	}
	update := Update{
		Client:     c.ID,
		Round:      c.round,
		NumSamples: c.Data.Len(),
		Steps:      c.totalBatches,
		Partial:    partial,
	}
	payload := UpdatePayload{}
	size := w.ByteSize()
	if c.Codec == nil {
		// The leased snapshot itself (roundNet.snapshot): the client lets go
		// of it here, and the receiver returns it once it has aggregated it.
		update.Weights = w
	} else {
		// The update stream rides the residual-carrying encoders: what this
		// round's sparsification drops is carried into the next send.
		enc, err := encodeWeights(c.Codec.Name(), c.updFeature, c.updClassifier, w, c.base)
		c.lanes.putWeights(w) // the wire bytes are enc's own
		if err != nil {
			c.logf("client %d: encode update: %v", c.ID, err)
			return
		}
		payload.Encoded = enc
		size = enc.WireSize()
	}
	payload.Update = update
	c.BW.send(env, comm.Message{
		To:      comm.FederatorID,
		Round:   c.round,
		Kind:    comm.KindUpdate,
		Size:    size,
		Payload: payload,
	})
}

// maybeRunHelper starts the strong-side offloaded training once both the
// directive and the frozen model have arrived and the client's own training
// is done.
//
// Cost model: each offloaded update is charged the strong client's
// bf-phase duration — the x_b = t_{k,4} assumption Algorithm 2 makes. The
// strong client reuses the forward activations of its own local batches, so
// only the offloaded model's feature backward pass is added work.
func (c *Client) maybeRunHelper(env comm.Env) {
	if c.helperActive || !c.ownDone || c.directive == nil || c.offloadJob == nil {
		return
	}
	job := *c.offloadJob
	if job.Weak != c.directive.Peer {
		// Stale: a reassignment repointed this helper; the new peer re-ships.
		c.logf("client %d: offload from %d, directive peer %d", c.ID, job.Weak, c.directive.Peer)
		c.offloadJob = nil
		return
	}
	c.helperActive = true
	updates := job.Updates
	round := c.round
	c.Trace.Record(env.Now(), c.ID, c.round, trace.HelperStart,
		fmt.Sprintf("training %d offloaded updates for client %d", updates, job.Weak))
	done := time.Duration(updates) * c.bfDur
	c.helper = c.launch(env.Now()+done, helperStep(c.lanes, c.Arch, c.Backend, c.Codec, c.base, job, c.batchXs, c.batchYs, c.cfg.LR))
	env.After(done, func() {
		if c.round != round {
			return
		}
		c.returnHelperResult(env, job.Weak)
	})
}

// returnHelperResult joins the helper job and returns the offloaded model's
// trained feature section to the federator.
func (c *Client) returnHelperResult(env comm.Env, weak comm.NodeID) {
	w, err := c.helper.join()
	c.helper = nil
	if err != nil {
		c.logf("client %d: %v", c.ID, err)
		return
	}
	c.Trace.Record(env.Now(), c.ID, c.round, trace.HelperDone,
		fmt.Sprintf("returning features of client %d", weak))
	result := OffloadResultPayload{Weak: weak, Strong: c.ID}
	size := 8 * len(w.Feature)
	if c.Codec == nil {
		// Only the feature section travels, in a vector of its own: the
		// federator returns it, paired with the weak client's classifier, at
		// the round's close, and the leased pair goes back whole below.
		result.Feature = append([]float64(nil), w.Feature...)
	} else {
		var data []byte
		data, err = encodeSection(c.Codec, w.Feature, c.base.Feature)
		result.Encoded = EncodedWeights{Codec: c.Codec.Name(), Feature: data}
		size = result.Encoded.WireSize()
	}
	c.lanes.putWeights(w)
	if err != nil {
		c.logf("client %d: encode helper result: %v", c.ID, err)
		return
	}
	c.BW.send(env, comm.Message{
		To:      comm.FederatorID,
		Round:   c.round,
		Kind:    comm.KindOffloadResult,
		Size:    size,
		Payload: result,
	})
}

// launch hands the round's lane a step that the event at virtual time due
// will join.
func (c *Client) launch(due time.Duration, run stepFunc) *step {
	if c.lane == nil {
		c.lane = &lane{group: c.lanes}
	}
	return c.lane.launch(due, run)
}

// launchBatches hands the lane the round's next n batches; frozen selects
// the bf-free procedure (a freezeStep must precede it on the lane). The
// launch that reaches the round's last batch with the features live ends
// the lease: nothing trains the network after it. A weak client's full
// batches are followed by its freeze, and its frozen tail keeps the lease.
func (c *Client) launchBatches(n int, frozen bool, due time.Duration) {
	if n <= 0 {
		return
	}
	last := !frozen && !c.offloaded && c.executed+n == c.totalBatches
	c.tail = c.launch(due, trainStep(c.ID, c.lease, c.batchXs, c.batchYs, c.executed, n, frozen, last))
	c.executed += n
}

// joinTraining waits for every batch launched so far (steps run in lane
// order, so the last one covers them all).
func (c *Client) joinTraining() error {
	_, err := c.tail.join()
	c.tail = nil
	return err
}

// releaseNet ends the round's lease on the network if its steps have not;
// the lane must hold no step that trains it.
func (c *Client) releaseNet() {
	if c.lease != nil {
		c.lanes.endLease(c.lease)
	}
}

// endRound ends a clean round of a hierarchical client (shard, park) once
// its update is sent and its lane is idle: it ends the net lease if a step
// has not and hands the shard's tensors back, then parks the client with its
// continuation. The shell drops this incarnation, and with it everything
// else the round held — the round's SGD and global, the lane and its joined
// tail, the fired completion timer, the codec base.
func (c *Client) endRound() {
	c.releaseNet()
	c.dropShard()
	c.park(c.continuation())
}

// continuation is what a parked client carries from one round to its next:
// the state a rehydration from (seed, ID) cannot regenerate. Each part is
// kept only when the client has it.
type continuation struct {
	// jitter is the load-jitter stream, when Jitter > 0.
	jitter *tensor.RNG
	// updFeature/updClassifier are the topk residual streams.
	updFeature, updClassifier codec.Codec
	// verifier is the signed-schedule verifier, whose replay floor must
	// survive, when one is set.
	verifier *sched.Verifier
}

// continuation returns the client's continuation, or nil when a
// rehydration regenerates everything its next round needs.
func (c *Client) continuation() any {
	var k continuation
	if c.Jitter > 0 {
		k.jitter = c.jitterRNG
	}
	if c.residuals() {
		k.updFeature, k.updClassifier = c.updFeature, c.updClassifier
	}
	k.verifier = c.Verifier
	if k.jitter == nil && k.updFeature == nil && k.verifier == nil {
		return nil
	}
	return &k
}

// resume restores what a parked incarnation carried (continuation) into a
// freshly initialized client; cont may be nil.
func (c *Client) resume(cont any) {
	k, ok := cont.(*continuation)
	if !ok {
		return
	}
	if k.jitter != nil {
		c.jitterRNG = k.jitter
	}
	if k.updFeature != nil {
		c.updFeature, c.updClassifier = k.updFeature, k.updClassifier
	}
	if k.verifier != nil {
		c.Verifier = k.verifier
	}
}

// dropShard hands a regenerable shard's sample tensors back to the run's
// free list and forgets the batches cut from them; no lane step may still
// read them. A flat client keeps its shard.
func (c *Client) dropShard() {
	if c.shard == nil || c.Data == nil {
		return
	}
	c.lanes.putSamples(c.Data.Samples)
	c.Data = nil
	c.batchXs, c.batchYs = nil, nil
}

// dropLane cancels what the lane still holds, waits out the batch it is in
// the middle of, and forgets the round's futures. The network stays leased.
func (c *Client) dropLane() {
	c.lane.cancel()
	c.lane = nil
	c.tail, c.snap, c.helper = nil, nil, nil
	c.frozenW = nn.Weights{}
}

// roundNet is one client round's lease on a model replica, shared by the
// round's lane steps: the first of them to run takes a replica and loads the
// dispatched global into it (hold), and the one that runs the round's last
// batch with the features live snapshots the update into upd and hands the
// replica back (trainStep's last). The steps of a round run one at a time
// in launch order, each handed over under the lane scheduler's lock, so
// they share it without one of their own; the clock's goroutine reads it
// only after a join, or once dropLane has waited the lane out. net is
// atomic for the run's end alone: drain ends the leases a round left open
// while, over TCP, a late timer may still be handling a client.
type roundNet struct {
	group  *laneGroup
	arch   nn.Arch
	be     tensor.Backend
	global nn.Weights // the dispatched model, read-only
	opt    *nn.SGD

	net atomic.Pointer[nn.Network]
	upd nn.Weights
}

// hold returns the round's replica, leasing and loading one if no earlier
// step of the round has.
func (r *roundNet) hold() (*nn.Network, error) {
	if net := r.net.Load(); net != nil {
		return net, nil
	}
	net, err := r.group.leaseNet(r)
	if err != nil {
		return nil, fmt.Errorf("fl: build network: %w", err)
	}
	if err := net.LoadWeights(r.global); err != nil {
		return nil, fmt.Errorf("fl: load global: %w", err)
	}
	if r.opt.Mu > 0 {
		if err := r.opt.RegisterProximalLayout(net); err != nil {
			return nil, fmt.Errorf("fl: proximal layout: %w", err)
		}
	}
	return net, nil
}

// snapshot takes the update off net into a vector leased from the run's
// free list; sendUpdate hands it on.
func (r *roundNet) snapshot(net *nn.Network) nn.Weights {
	return net.SnapshotInto(r.group.takeWeights())
}

// trainStep is the lane step running batches [from, from+n) of the round's
// batch cycle on the round's replica; last makes it the step that ends the
// lease.
func trainStep(id comm.NodeID, r *roundNet, xs [][]*tensor.Tensor, ys [][]int, from, n int, frozen, last bool) stepFunc {
	return func(stop *atomic.Bool) (nn.Weights, error) {
		net, err := r.hold()
		if err != nil {
			return nn.Weights{}, err
		}
		if frozen != net.FeaturesFrozen() {
			return nn.Weights{}, fmt.Errorf("fl: client %d frozen state mismatch", id)
		}
		for i := from; i < from+n; i++ {
			if stop.Load() {
				return nn.Weights{}, errLaneCancelled
			}
			b := i % len(xs)
			if _, err := net.TrainBatch(xs[b], ys[b], r.opt); err != nil {
				return nn.Weights{}, err
			}
		}
		if last {
			r.upd = r.snapshot(net)
			r.group.endLease(r)
		}
		return nn.Weights{}, nil
	}
}

// freezeStep freezes the feature section and returns the model as it stands
// at that point: the shipment the helper trains from.
func freezeStep(r *roundNet) stepFunc {
	return func(*atomic.Bool) (nn.Weights, error) {
		net, err := r.hold()
		if err != nil {
			return nn.Weights{}, err
		}
		net.SetFeaturesFrozen(true)
		return net.SnapshotWeights(), nil
	}
}

// helperStep trains the offloaded model's feature section on the strong
// client's own batches, on a scratch replica leased from the run's free list
// for the length of the job, and returns its weights in a leased vector.
// job.Weights is the weak client's snapshot, shared: it is only loaded.
func helperStep(nets *laneGroup, arch nn.Arch, be tensor.Backend, cdc codec.Codec, base nn.Weights, job OffloadPayload, xs [][]*tensor.Tensor, ys [][]int, lr float64) stepFunc {
	return func(stop *atomic.Bool) (nn.Weights, error) {
		scratch, err := nets.takeNet(arch, be)
		if err != nil {
			return nn.Weights{}, fmt.Errorf("helper network: %w", err)
		}
		defer nets.putNet(scratch)
		weak := job.Weights
		if !job.Encoded.IsZero() {
			// The weak client encoded its frozen model as a delta against the
			// round's global base; this client holds the same base.
			if cdc == nil {
				return nn.Weights{}, fmt.Errorf("encoded offload on a codec-free run")
			}
			if weak, err = decodeWeights(cdc, job.Encoded, base, nets.takeWeights()); err != nil {
				return nn.Weights{}, fmt.Errorf("decode offload: %w", err)
			}
			defer nets.putWeights(weak) // LoadWeights copies it
		}
		if err := scratch.LoadWeights(weak); err != nil {
			return nn.Weights{}, fmt.Errorf("helper load: %w", err)
		}
		opt := nn.NewSGD(lr)
		opt.Backend = be
		for i := 0; i < job.Updates; i++ {
			if stop.Load() {
				return nn.Weights{}, errLaneCancelled
			}
			b := i % len(xs)
			if _, err := scratch.TrainBatch(xs[b], ys[b], opt); err != nil {
				return nn.Weights{}, fmt.Errorf("helper training: %w", err)
			}
		}
		return scratch.SnapshotInto(nets.takeWeights()), nil
	}
}
