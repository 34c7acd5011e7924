package chaos

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"aergia/internal/comm"
	"aergia/internal/tensor"
)

// Rejoiner is comm.Rejoiner, under the name the fault layer introduced.
type Rejoiner = comm.Rejoiner

// Stats counts the faults a Transport actually injected; the churn example
// and the smoke tests assert on them.
type Stats struct {
	// Crashes and Rejoins count node-level events that fired.
	Crashes int
	Rejoins int
	// DroppedLink counts messages lost to the per-link Drop probability.
	DroppedLink int
	// DroppedDown counts messages discarded because the destination (or,
	// for a racing timer send, the source) was down.
	DroppedDown int
	// Delayed counts messages that drew a nonzero extra link delay.
	Delayed int
	// SuppressedTimers counts actor timers swallowed because their node
	// crashed between scheduling and firing.
	SuppressedTimers int
}

// Transport is the handle of the fault interceptor on a comm.Stack: the
// embedded stack is the transport, and the handle carries the plan's fault
// state, Stats and ScheduleCrash. Crash/rejoin events are scheduled on the
// federator's env at Seal, so they ride virtual time on the simulator and
// wall-clock time over TCP — the identical plan perturbs both. Under a zero
// plan with no explicit fates no event is scheduled and every hook passes
// straight through, so the run is bit-identical to an unwrapped one (the
// parity tests pin this).
type Transport struct {
	*comm.Stack
	plan    Plan // normalized
	planErr error
	seed    uint64

	mu       sync.Mutex // guards everything below and every node's nodeFault
	explicit map[comm.NodeID]Fate
	linkSeq  map[[2]comm.NodeID]uint64
	stats    Stats
	sealed   bool
	closed   bool
	timers   []comm.Timer
	inflight sync.WaitGroup
}

// nodeFault is one node's fault state, the interceptor's state on the node.
type nodeFault struct {
	down        bool
	incarnation uint64
	fate        Fate
}

// New adds the plan's fault interceptor above inner (see comm.Interceptor.On).
// An invalid plan surfaces at Seal (construction sites without error paths
// stay simple). seed is the run's topology seed.
func New(inner comm.Transport, plan Plan, seed uint64) *Transport {
	t := &Transport{seed: seed, explicit: make(map[comm.NodeID]Fate), linkSeq: make(map[[2]comm.NodeID]uint64)}
	t.plan, t.planErr = plan.Normalized()
	t.Stack = comm.Interceptor{
		State: t.state, Send: t.send, Deliver: t.deliver, After: t.after, Seal: t.seal, Close: t.close,
	}.On(inner)
	return t
}

// Wrap returns inner unchanged for a zero plan and a fault-injecting
// Transport otherwise, so the fault-free path carries no fault interceptor
// at all.
func Wrap(inner comm.Transport, plan Plan, seed uint64) comm.Transport {
	if plan.IsZero() {
		return inner
	}
	return New(inner, plan, seed)
}

// ScheduleCrash pins an explicit crash for one node at the given offset
// from Seal, rejoining after downFor (0 means the node stays dead). It
// composes with (and overrides the expanded fate of) the plan, giving tests
// and examples exact control over which node fails when. Call before Seal.
func (t *Transport) ScheduleCrash(node comm.NodeID, at, downFor time.Duration) {
	f := Fate{Node: node, Crashes: true, CrashAt: at, SpikeFactor: 1}
	if downFor > 0 {
		f.Rejoins = true
		f.RejoinAt = at + downFor
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		panic("chaos: ScheduleCrash after Seal")
	}
	t.explicit[node] = f
}

// Stats returns a snapshot of the injected-fault counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// fate is node's fate: the one ScheduleCrash pinned, else the plan's (the
// federator itself is never faulted). The caller holds t.mu.
func (t *Transport) fate(node comm.NodeID) Fate {
	if f, ok := t.explicit[node]; ok {
		return f
	}
	if node == comm.FederatorID {
		return Fate{}
	}
	return t.plan.fate(t.seed, node)
}

// state makes a node's fault state as the node activates: its fate is a
// pure function of (seed, plan, node), so it does not matter when.
func (t *Transport) state(node comm.NodeID) any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &nodeFault{fate: t.fate(node)}
}

// faultOf is the node's fault state.
func faultOf(l comm.Layer) *nodeFault { return l.State().(*nodeFault) }

// seal finds the members fated to crash, activating only those, and
// schedules every crash and rejoin on the federator's timers below this
// layer, so the events are neither spike-scaled nor incarnation-guarded.
func (t *Transport) seal(m comm.Members) error {
	if t.planErr != nil {
		return t.planErr
	}
	var crashing []comm.NodeID
	t.mu.Lock()
	t.sealed = true
	m.Each(func(id comm.NodeID) {
		if t.fate(id).Crashes {
			crashing = append(crashing, id)
		}
	})
	t.mu.Unlock()
	if len(crashing) == 0 {
		return nil
	}
	fed, ok := m.Layer(comm.FederatorID)
	if !ok {
		return fmt.Errorf("chaos: %d crashes are scheduled on the federator, which is not registered", len(crashing))
	}
	// Timers are armed in node order, so a replay arms the same sequence
	// whatever order the nodes registered in.
	slices.Sort(crashing)
	var timers []comm.Timer
	for _, id := range crashing {
		l, _ := m.Layer(id)
		f := faultOf(l).fate
		timers = append(timers, fed.After(f.CrashAt, func() { t.crash(fed, l) }))
		if f.Rejoins {
			timers = append(timers, fed.After(f.RejoinAt, func() { t.rejoin(fed, l) }))
		}
	}
	t.mu.Lock()
	t.timers = timers
	t.mu.Unlock()
	return nil
}

// crash marks the node down, invalidates its pending timers, and notifies
// the federator. It runs in the federator's actor context (on its timer),
// and the notice enters the deliver chain above this layer like any
// delivery the layers above see.
func (t *Transport) crash(fed, l comm.Layer) {
	t.mu.Lock()
	st := faultOf(l)
	if t.closed || st.down {
		t.mu.Unlock()
		return
	}
	// The closed check and this increment are atomic under mu, so Close
	// either stops this event or waits for it before releasing the inner
	// transport's peers.
	t.inflight.Add(1)
	defer t.inflight.Done()
	st.down = true
	st.incarnation++
	t.stats.Crashes++
	t.mu.Unlock()
	fed.Deliver(faultNotice(l.ID(), true))
}

// rejoin resurrects the node: its in-memory state is rebuilt from its
// static seed-derived config (comm.Rejoiner, run in the node's own actor
// context) before the federator learns it is back, so a dispatch the
// federator sends on the notification can never reach a half-reset actor.
func (t *Transport) rejoin(fed, l comm.Layer) {
	t.mu.Lock()
	st := faultOf(l)
	if t.closed || !st.down {
		t.mu.Unlock()
		return
	}
	t.inflight.Add(1)
	defer t.inflight.Done()
	st.down = false
	t.stats.Rejoins++
	t.mu.Unlock()
	l.Rejoin()
	fed.Deliver(faultNotice(l.ID(), false))
}

func faultNotice(node comm.NodeID, down bool) comm.Message {
	return comm.Message{
		From:    node,
		To:      comm.FederatorID,
		Kind:    comm.KindFault,
		Payload: comm.FaultPayload{Node: node, Down: down},
	}
}

// close disarms pending fault-event timers and waits out the ones in
// flight before the inner transport is torn down, so a wall-clock
// crash/rejoin scheduled past the end of a finished run cannot touch
// released peers.
func (t *Transport) close() {
	t.mu.Lock()
	t.closed = true
	timers := t.timers
	t.timers = nil
	t.mu.Unlock()
	for _, tm := range timers {
		tm.Cancel()
	}
	t.inflight.Wait()
}

// linkFault draws the deterministic drop/delay decision for the next
// message on the (from, to) link. Decisions hash (run seed, plan seed,
// link, sequence), so a replayed run sees the identical loss pattern.
// The caller holds t.mu.
func (t *Transport) linkFault(from, to comm.NodeID) (drop bool, delay time.Duration) {
	if t.plan.Drop == 0 && t.plan.Delay == 0 {
		return false, 0
	}
	key := [2]comm.NodeID{from, to}
	n := t.linkSeq[key]
	t.linkSeq[key] = n + 1
	mixed := t.seed ^ (t.plan.Seed+1)*0x9e3779b97f4a7c15 ^
		(uint64(from)+3)*0xd6e8feb86659fd93 ^ (uint64(to)+5)*0xa5a3d31efb8c2a71 ^ n
	rng := tensor.NewRNG(mixed)
	if t.plan.Drop > 0 && rng.Float64() < t.plan.Drop {
		t.stats.DroppedLink++
		return true, 0
	}
	if t.plan.Delay > 0 {
		delay = time.Duration(rng.Float64() * float64(t.plan.Delay))
		if delay > 0 {
			t.stats.Delayed++
		}
	}
	return false, delay
}

// send applies the link fault model. A message that draws a delay is
// re-sent from a timer below this layer, so on the simulator the extra
// latency is virtual and on TCP it is a real timer — in both cases the
// message survives a subsequent sender crash, like a frame already on the
// wire.
func (t *Transport) send(l comm.Layer, msg comm.Message) {
	t.mu.Lock()
	st := faultOf(l)
	if st.down {
		// A racing timer on a wall-clock transport can attempt a send in
		// the instant its node is declared down; model it as lost output.
		t.stats.DroppedDown++
		t.mu.Unlock()
		return
	}
	drop, delay := t.linkFault(l.ID(), msg.To)
	t.mu.Unlock()
	switch {
	case drop:
	case delay > 0:
		l.After(delay, func() { l.Send(msg) })
	default:
		l.Send(msg)
	}
}

// deliver discards a message that reaches a downed node.
func (t *Transport) deliver(l comm.Layer, msg comm.Message) {
	t.mu.Lock()
	st := faultOf(l)
	down := st.down
	if down {
		t.stats.DroppedDown++
	}
	t.mu.Unlock()
	if !down {
		l.Deliver(msg)
	}
}

// after scales the duration by the node's current spike factor (transient
// load makes the same work take longer) and arms the callback against the
// node's incarnation: a crash between scheduling and firing swallows it,
// modeling lost in-memory state.
func (t *Transport) after(l comm.Layer, d time.Duration, fn func()) comm.Timer {
	now := l.Now()
	t.mu.Lock()
	st := faultOf(l)
	if f := st.fate; f.SpikeFactor > 1 && now >= f.SpikeStart && now < f.SpikeEnd {
		d = time.Duration(float64(d) * f.SpikeFactor)
	}
	inc := st.incarnation
	t.mu.Unlock()
	return l.After(d, func() {
		t.mu.Lock()
		stale := st.down || st.incarnation != inc
		if stale {
			t.stats.SuppressedTimers++
		}
		t.mu.Unlock()
		if !stale {
			fn()
		}
	})
}
