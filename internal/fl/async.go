package fl

import (
	"errors"
	"fmt"
	"time"

	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/nn"
	"aergia/internal/obs"
)

// AsyncFederator implements the asynchronous aggregation alternative the
// paper discusses in §2.3: instead of waiting for every client, the
// federator folds each update into the global model the moment it arrives,
// discounted by its staleness (FedAsync-style):
//
//	w ← (1-α_k)·w + α_k·w_k,   α_k = Alpha / (1 + staleness)
//
// where staleness is the number of model versions published since the
// client received its base model. The paper's observation — async avoids
// idle waiting but risks slower convergence and lower accuracy — is
// reproduced by the "async" experiment.
type AsyncFederator struct {
	// Arch is the global model architecture.
	Arch nn.Arch
	// Clients lists all registered clients.
	Clients []ClientInfo
	// Local is the per-dispatch local training configuration.
	Local LocalConfig
	// Alpha is the base mixing weight in (0,1].
	Alpha float64
	// TotalUpdates is the number of client updates to absorb before
	// stopping (the async analogue of a round budget).
	TotalUpdates int
	// EvalEvery evaluates accuracy every k updates; 0 defaults to the
	// number of clients.
	EvalEvery int
	// RedispatchAfter re-sends the current model to a client whose last
	// dispatch produced no update within this duration — the async
	// liveness fallback for lossy links, where a dropped dispatch or
	// update would otherwise idle that client forever. It must exceed the
	// slowest client's update time or slow clients are restarted before
	// they can finish. 0 disables the watchdog (fault-free runs need
	// none, and arm no timers). Topology.Build wires it from
	// chaos.Plan.RoundTimeout.
	RedispatchAfter time.Duration
	// Evaluate computes test accuracy of the global weights, on a compute
	// lane (off the federator's goroutine), one call at a time.
	Evaluate func(w nn.Weights) (float64, error)
	// Seed identifies the run in published round events.
	Seed uint64
	// Events, when set, receives one live obs.RoundEvent per evaluation
	// sample; Round carries the absorbed-update count (the async analogue
	// of a round number) and Cohort the updates absorbed since the
	// previous sample.
	Events *obs.RoundStream
	// Codec decodes encoded client updates against the model version each
	// dispatch shipped; nil expects raw payloads. With a codec, an update
	// answering a dispatch whose base was already superseded (a redispatch
	// overtook it) is dropped — its delta base is gone — where the raw
	// path would absorb it with a staleness discount.
	Codec codec.Codec
	// BW, when set, counts the bytes the federator puts on the wire.
	BW *Bandwidth
	// OnFinish is called once the update budget is exhausted.
	OnFinish func(*AsyncResults)
	// Logf, when set, receives debug traces.
	Logf func(format string, args ...any)

	// current is the global model: one snapshot per version, dispatched by
	// reference, retained as the codec's delta base, evaluated, and never
	// written — an absorb mixes into a copy that becomes the next version.
	current  nn.Weights
	version  int
	absorbed int
	results  *AsyncResults
	finished bool
	tracker  *cohort // only its liveness view: the async loop has no rounds
	// outstanding maps each client to the sequence number of its latest
	// dispatch, until an update answers it; the redispatch watchdog fires
	// only if that exact dispatch is still unanswered.
	outstanding map[comm.NodeID]uint64
	dispatchSeq uint64
	// bases retains the dispatched model snapshots by version — the
	// codec's delta bases — each stored once and reference-counted by the
	// outstanding dispatches that shipped it (Start sends one version to
	// every client; duplicating the snapshot per client would multiply
	// resident memory by the cluster size). clientBases tracks which
	// versions each client's outstanding dispatches used; entries at or
	// below an absorbed update's version are pruned, releasing the shared
	// snapshot when its last reference goes.
	bases       map[int]*asyncBase
	clientBases map[comm.NodeID]map[int]bool

	// Event-stream bookkeeping: the clock and update count at the last
	// published sample, so events carry per-sample deltas.
	lastSampleAt      time.Duration
	lastSampleUpdates int

	lanes    *laneGroup  // the run's (Topology.Build), or Init makes one
	sampling *evaluation // the last sample's, joined at the next sample
}

// asyncBase is one retained dispatch base and its outstanding-dispatch
// reference count.
type asyncBase struct {
	w    nn.Weights
	refs int
}

// AsyncSample is one evaluated point of an asynchronous run.
type AsyncSample struct {
	Updates  int
	Time     time.Duration
	Accuracy float64
}

// AsyncResults aggregates an asynchronous experiment.
type AsyncResults struct {
	// Samples are the periodic accuracy evaluations.
	Samples []AsyncSample
	// TotalUpdates is the number of absorbed client updates.
	TotalUpdates int
	// TotalTime is the virtual time at which the budget was exhausted.
	TotalTime time.Duration
	// FinalAccuracy is the last evaluation.
	FinalAccuracy float64
	// MeanStaleness is the average staleness of absorbed updates.
	MeanStaleness float64
	// Bandwidth reports the bytes the run put on the wire, by traffic
	// class; Deployment.RunAsync fills it from the cluster's counters.
	Bandwidth BandwidthStats

	stalenessSum int
}

var _ comm.Handler = (*AsyncFederator)(nil)

// ErrAsyncConfig reports an invalid asynchronous configuration.
var ErrAsyncConfig = errors.New("fl: invalid async federator configuration")

// Init builds the global model. Call once before Start.
func (f *AsyncFederator) Init() error {
	if f.Alpha <= 0 || f.Alpha > 1 {
		return fmt.Errorf("%w: alpha %v", ErrAsyncConfig, f.Alpha)
	}
	if f.TotalUpdates <= 0 {
		return fmt.Errorf("%w: %d total updates", ErrAsyncConfig, f.TotalUpdates)
	}
	if len(f.Clients) == 0 {
		return fmt.Errorf("%w: no clients", ErrAsyncConfig)
	}
	global, err := nn.Build(f.Arch, 1)
	if err != nil {
		return fmt.Errorf("fl: async global model: %w", err)
	}
	f.current = global.SnapshotWeights()
	if f.EvalEvery <= 0 {
		f.EvalEvery = len(f.Clients)
	}
	f.results = &AsyncResults{}
	f.tracker = newCohort("async")
	f.outstanding = make(map[comm.NodeID]uint64)
	f.bases = make(map[int]*asyncBase)
	f.clientBases = make(map[comm.NodeID]map[int]bool)
	if f.lanes == nil {
		f.lanes = newLaneGroup()
	}
	return nil
}

// Start dispatches the initial model to every client.
func (f *AsyncFederator) Start(env comm.Env) {
	for _, c := range f.Clients {
		f.dispatch(env, c.ID)
	}
}

// Results returns the accumulated results.
func (f *AsyncFederator) Results() *AsyncResults { return f.results }

// dispatch sends the current global model to one client; the Round field
// carries the model version so staleness is measurable on return.
func (f *AsyncFederator) dispatch(env comm.Env, to comm.NodeID) {
	cfg := f.Local
	cfg.Round = f.version
	cfg.ProfileBatches = 0
	w := f.current
	if f.Codec != nil {
		// Retain the shipped snapshot: it is the base the client's encoded
		// delta will be decoded against when this dispatch is answered.
		cv := f.clientBases[to]
		if cv == nil {
			cv = make(map[int]bool)
			f.clientBases[to] = cv
		}
		if !cv[f.version] {
			cv[f.version] = true
			ref := f.bases[f.version]
			if ref == nil {
				ref = &asyncBase{w: w}
				f.bases[f.version] = ref
			}
			ref.refs++
		}
	}
	f.BW.send(env, comm.Message{
		To:      to,
		Round:   f.version,
		Kind:    comm.KindTrain,
		Size:    w.ByteSize(),
		Payload: TrainPayload{Config: cfg, Global: w},
	})
	if f.RedispatchAfter <= 0 {
		return
	}
	f.dispatchSeq++
	seq := f.dispatchSeq
	f.outstanding[to] = seq
	env.After(f.RedispatchAfter, func() {
		// Only the exact unanswered dispatch retries: an absorbed update
		// clears the entry, a rejoin re-dispatch bumps the sequence, and a
		// crashed client waits for its rejoin instead.
		if f.finished || f.outstanding[to] != seq || f.tracker.down[to] {
			return
		}
		flm().redispatch.Inc()
		f.logf("async: client %d silent for %v, re-dispatching", to, f.RedispatchAfter)
		f.dispatch(env, to)
	})
}

// OnMessage implements comm.Handler.
func (f *AsyncFederator) OnMessage(env comm.Env, msg comm.Message) {
	if msg.Kind == comm.KindFault {
		if p, ok := msg.Payload.(comm.FaultPayload); ok {
			f.onFault(env, p)
		}
		return
	}
	if f.finished || msg.Kind != comm.KindUpdate {
		return
	}
	p, ok := msg.Payload.(UpdatePayload)
	if !ok {
		return
	}
	staleness := f.version - p.Update.Round
	if staleness < 0 {
		f.logf("async: update from the future (version %d > %d)", p.Update.Round, f.version)
		return
	}
	// An update answering a dispatch that was superseded (redispatch) or
	// belongs to a crashed incarnation has no delta base left.
	var base *nn.Weights
	if ref := f.bases[p.Update.Round]; ref != nil && f.clientBases[p.Update.Client][p.Update.Round] {
		base = &ref.w
	}
	update, err := decodeUpdate(f.Codec, p, base, f.lanes)
	if err != nil {
		f.logf("async: update from %d: %v", p.Update.Client, err)
		return
	}
	defer f.lanes.putWeights(update.Weights) // read by the mix alone
	if f.Codec != nil {
		// The answered dispatch (and anything older) can no longer produce
		// an update; drop the client's references and free snapshots whose
		// last reference went.
		for v := range f.clientBases[update.Client] {
			if v > update.Round {
				continue
			}
			delete(f.clientBases[update.Client], v)
			if ref := f.bases[v]; ref != nil {
				if ref.refs--; ref.refs <= 0 {
					delete(f.bases, v)
				}
			}
		}
	}
	delete(f.outstanding, update.Client)
	alpha := f.Alpha / float64(1+staleness)
	next := f.current.Clone()
	next.Scale(1 - alpha)
	if err := next.Axpy(alpha, update.Weights); err != nil {
		f.logf("async: mix update from %d: %v", update.Client, err)
		return
	}
	f.current = next
	f.version++
	f.absorbed++
	f.results.stalenessSum += staleness
	m := flm()
	m.asyncUpdates.Inc()
	m.staleness.Observe(float64(staleness))

	if f.Evaluate != nil && (f.absorbed%f.EvalEvery == 0 || f.absorbed == f.TotalUpdates) {
		f.sampling.settle() // its success moves this event's deltas
		sample := AsyncSample{Updates: f.absorbed, Time: env.Now()}
		ev := f.Events.Resolve(obs.RoundEvent{
			Run:      f.Seed,
			Round:    f.absorbed,
			Cohort:   f.absorbed - f.lastSampleUpdates,
			Duration: env.Now() - f.lastSampleAt,
			Time:     env.Now(),
			Bytes:    f.BW.Snapshot().TotalBytes,
			// Async spans are filed under dispatch rounds, not absorb
			// counts, so the straggler stays unnamed.
			Straggler: comm.FederatorID,
		})
		f.sampling = launchEvaluation(f.lanes, env.Now(), f.Evaluate, f.current, func(acc float64, err error) {
			if err != nil {
				f.logf("async: evaluate: %v", err)
				return
			}
			sample.Accuracy, ev.Accuracy = acc, acc
			f.results.Samples = append(f.results.Samples, sample)
			f.results.FinalAccuracy = acc
			f.Events.Announce(ev)
			f.lastSampleAt = sample.Time
			f.lastSampleUpdates = sample.Updates
		})
	}
	if f.absorbed >= f.TotalUpdates {
		f.finished = true
		f.sampling.settle()
		f.sampling = nil
		f.results.TotalUpdates = f.absorbed
		f.results.TotalTime = env.Now()
		if f.absorbed > 0 {
			f.results.MeanStaleness = float64(f.results.stalenessSum) / float64(f.absorbed)
		}
		if f.OnFinish != nil {
			f.OnFinish(f.results)
		}
		return
	}
	// Keep the sender busy with the fresh model. A crashed sender's
	// dispatch would be lost; its rejoin re-enlists it instead.
	if !f.tracker.down[p.Update.Client] {
		f.dispatch(env, p.Update.Client)
	}
}

// onFault tracks liveness: the async loop is self-healing as long as one
// client survives (every absorbed update re-dispatches to its sender), and
// a rejoining client is re-enlisted with the current global model — its
// crashed incarnation's model died with it.
func (f *AsyncFederator) onFault(env comm.Env, p comm.FaultPayload) {
	if p.Down {
		f.tracker.crash(p.Node)
		f.logf("async: client %d crashed", p.Node)
		return
	}
	f.tracker.rejoin(p.Node)
	f.logf("async: client %d rejoined", p.Node)
	if !f.finished {
		f.dispatch(env, p.Node)
	}
}

func (f *AsyncFederator) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}
