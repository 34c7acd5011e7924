package fl

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/comm"
	"aergia/internal/nn"
	"aergia/internal/sim"
)

// TestMain runs every runOn-driven test of this package under the protocol
// checker.
func TestMain(m *testing.M) {
	checkRun = checkInvariants
	os.Exit(m.Run())
}

// invariants is the protocol checker: an interceptor outermost on a
// simulated run's stack (hier.Route, which Deployment.bind adds later, sits
// above it) that keeps the first violation of these rules and fails the run
// with it at Close:
//   - a node sends nothing between its crash notice and its rejoin notice;
//   - a node's clock never goes backwards;
//   - a client or edge sends at most one update per dispatch: per (round,
//     incarnation, KindTrain deliveries of the round), an incarnation ending
//     at each crash notice. A re-dispatch in one incarnation is legitimate:
//     an edge that crashed and was re-enrolled re-dispatches its round to
//     members that delivered to its dead incarnation;
//   - the run's bandwidth ledger equals the summed Size of what the actors
//     sent;
//   - a dispatched TrainPayload.Global is never written: the federators and
//     the edges send one snapshot by reference to a whole round, so a holder
//     that wrote it would change every other holder's model. Each distinct
//     backing array is hashed at its first send and again at Close;
//   - a raw OffloadPayload.Weights is never written: the weak client ships
//     its freeze-time snapshot by reference, to a reassigned helper too.
//     Hashed like a global;
//   - a raw update's vectors are not written between its send and its
//     delivery: a client ships its leased snapshot (an edge its leased
//     aggregate) by reference, and from delivery on the receiver owns it and
//     may return it to the free list, where the next lease overwrites it.
//     Hashed at send, checked at delivery, or at Close if it never arrives.
//
// Over every transport it also installs the run's ownerGuard.
type invariants struct {
	*comm.Stack
	bw     *Bandwidth
	owners *ownerGuard

	// Unguarded: the simulator runs every hook on its one goroutine (lanes
	// send nothing), and the race detector holds the checker to that.
	now      map[comm.NodeID]time.Duration
	down     map[comm.NodeID]bool
	crashes  map[comm.NodeID]int
	trains   map[[2]int]int       // KindTrain deliveries, by (node, round)
	updates  map[[4]int]bool      // (node, incarnation, dispatches, round)
	shared   map[*float64]sentVec // globals and offload shipments, by backing array
	inflight map[*float64]sentVec // raw updates sent and not yet delivered
	sent     int64
	err      error
}

// sentVec is a shipped vector pair as its send found it; what names the
// shipment in a failure.
type sentVec struct {
	w    nn.Weights
	hash uint64
	what string
}

func newSentVec(w nn.Weights, format string, args ...any) sentVec {
	return sentVec{w: w, hash: hashWeights(w), what: fmt.Sprintf(format, args...)}
}

// written reports whether the pair's bits moved since its send.
func (s sentVec) written() bool { return hashWeights(s.w) != s.hash }

// hashWeights folds the bits of both sections, a word at a time, FNV-1a
// style: each step is a bijection in either input, so two snapshots that
// differ in one value never collide.
func hashWeights(w nn.Weights) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range [][]float64{w.Feature, w.Classifier} {
		for _, v := range s {
			h = (h ^ math.Float64bits(v)) * 1099511628211
		}
	}
	return h
}

func checkInvariants(cl *Cluster, transport string, inner comm.Transport) comm.Transport {
	owners := guardOwners(cl.lanes)
	if name, _ := CanonicalTransport(transport); name != TransportSim {
		// Wall-clock runs keep no per-node order to check.
		return &ownerCheck{Stack: comm.Interceptor{}.On(inner), owners: owners}
	}
	v := &invariants{
		bw:       cl.Bandwidth,
		owners:   owners,
		now:      make(map[comm.NodeID]time.Duration),
		down:     make(map[comm.NodeID]bool),
		crashes:  make(map[comm.NodeID]int),
		trains:   make(map[[2]int]int),
		updates:  make(map[[4]int]bool),
		shared:   make(map[*float64]sentVec),
		inflight: make(map[*float64]sentVec),
	}
	v.Stack = comm.Interceptor{Send: v.send, Deliver: v.deliver, After: v.after}.On(inner)
	return v
}

// shipped records the vectors a message carries by reference: a global or
// an offload at its backing array's first send, a raw update at every send.
func (v *invariants) shipped(from comm.NodeID, msg comm.Message) {
	switch p := msg.Payload.(type) {
	case TrainPayload:
		v.share(p.Global, "the global node %d dispatched for round %d", from, msg.Round)
	case OffloadPayload:
		v.share(p.Weights, "the offload node %d shipped for round %d", from, msg.Round)
	case UpdatePayload:
		if w := p.Update.Weights; len(w.Feature) > 0 {
			v.inflight[&w.Feature[0]] = newSentVec(w, "the update node %d sent for round %d", from, msg.Round)
		}
	}
}

// share records w at its backing array's first send.
func (v *invariants) share(w nn.Weights, format string, args ...any) {
	if len(w.Feature) == 0 {
		return
	}
	if _, seen := v.shared[&w.Feature[0]]; !seen {
		v.shared[&w.Feature[0]] = newSentVec(w, format, args...)
	}
}

// arrived checks a raw update's vectors as the receiver is handed them.
func (v *invariants) arrived(msg comm.Message) {
	p, ok := msg.Payload.(UpdatePayload)
	if !ok || len(p.Update.Weights.Feature) == 0 {
		return
	}
	key := &p.Update.Weights.Feature[0]
	if s, ok := v.inflight[key]; ok {
		if s.written() {
			v.failf("%s was written before its delivery", s.what)
		}
		delete(v.inflight, key)
	}
}

func (v *invariants) failf(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf("fl invariant: "+format, args...)
	}
}

// tick checks the node's clock against the last reading of it.
func (v *invariants) tick(l comm.Layer) {
	id, now := l.ID(), l.Now()
	if last := v.now[id]; now < last {
		v.failf("node %d's clock went back from %v to %v", id, last, now)
	}
	v.now[id] = now
}

func (v *invariants) send(l comm.Layer, msg comm.Message) {
	v.tick(l)
	id := l.ID()
	if v.down[id] {
		v.failf("node %d sent %s (round %d) at %v, between its crash and rejoin notices", id, msg.Kind, msg.Round, l.Now())
	}
	if msg.Kind == comm.KindUpdate && id != comm.FederatorID {
		k := [4]int{int(id), v.crashes[id], v.trains[[2]int{int(id), msg.Round}], msg.Round}
		if v.updates[k] {
			v.failf("node %d sent a second update for round %d in one incarnation and dispatch", id, msg.Round)
		}
		v.updates[k] = true
	}
	v.shipped(id, msg)
	v.sent += int64(msg.Size)
	l.Send(msg)
}

func (v *invariants) deliver(l comm.Layer, msg comm.Message) {
	v.tick(l)
	// The fault layer delivers every liveness notice to the federator.
	if p, ok := msg.Payload.(comm.FaultPayload); ok && msg.Kind == comm.KindFault && l.ID() == comm.FederatorID {
		v.down[p.Node] = p.Down
		if p.Down {
			v.crashes[p.Node]++
		}
	}
	if msg.Kind == comm.KindTrain {
		v.trains[[2]int{int(l.ID()), msg.Round}]++
	}
	v.arrived(msg)
	l.Deliver(msg)
}

func (v *invariants) after(l comm.Layer, d time.Duration, fn func()) comm.Timer {
	v.tick(l)
	return l.After(d, fn)
}

// Close closes the stack and reports the first violation, checking the
// bandwidth ledger and the shared vectors last: by now every send of the
// run has been counted and every holder of a global or an offload is done
// with it.
func (v *invariants) Close() error {
	err := v.Stack.Close()
	if total := v.bw.Snapshot().TotalBytes; total != v.sent {
		v.failf("the bandwidth ledger holds %d B, the actors sent %d B", total, v.sent)
	}
	for _, s := range v.shared {
		if s.written() {
			v.failf("%s was written after its send", s.what)
		}
	}
	for _, s := range v.inflight {
		if s.written() {
			v.failf("%s was written before its delivery", s.what)
		}
	}
	if oerr := v.owners.failure(); v.err == nil && oerr != nil {
		v.err = oerr
	}
	if v.err != nil {
		return v.err
	}
	return err
}

// ownerGuard is the two-owner guard on a run's free list: a pair handed to
// putWeights whose vector is already idle there had two owners, and both
// returned it — the next two leases would write one vector. It holds the
// first such return.
type ownerGuard struct {
	mu  sync.Mutex // a late TCP timer may return a vector while Close reads
	err error
}

// guardOwners installs a guard on g's returns, after any hook a test set.
func guardOwners(g *laneGroup) *ownerGuard {
	o := &ownerGuard{}
	prev := g.onReturn
	g.onReturn = func(w nn.Weights, idle []nn.Weights) {
		if prev != nil {
			prev(w, idle)
		}
		o.check(w, idle)
	}
	return o
}

func (o *ownerGuard) check(w nn.Weights, idle []nn.Weights) {
	for _, s := range [][]float64{w.Feature, w.Classifier} {
		for _, p := range idle {
			if sameArray(s, p.Feature) || sameArray(s, p.Classifier) {
				o.mu.Lock()
				if o.err == nil {
					o.err = fmt.Errorf("fl invariant: a %d-value vector was returned to the free list while idle there", len(s))
				}
				o.mu.Unlock()
				return
			}
		}
	}
}

func (o *ownerGuard) failure() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// sameArray reports whether a and b share a backing array.
func sameArray(a, b []float64) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// ownerCheck is the checker of a wall-clock run: the owner guard alone.
type ownerCheck struct {
	*comm.Stack
	owners *ownerGuard
}

func (c *ownerCheck) Close() error {
	err := c.Stack.Close()
	if oerr := c.owners.failure(); oerr != nil {
		return oerr
	}
	return err
}

// skewNet is the simulator with a clock that can be wound back, for the one
// rule the simulator itself never breaks.
type skewNet struct {
	*sim.Network
	skew *time.Duration
}

func (n skewNet) Env(id comm.NodeID) comm.Env { return skewEnv{n.Network.Env(id), n.skew} }

type skewEnv struct {
	comm.Env
	skew *time.Duration
}

func (e skewEnv) Now() time.Duration { return e.Env.Now() - *e.skew }

type idle struct{}

func (idle) OnMessage(comm.Env, comm.Message) {}

// TestInvariantsCatchEachViolation drives a federator and one client
// through scripted sends under the checker: each rule must reject its
// violation, and the same script without it must pass.
func TestInvariantsCatchEachViolation(t *testing.T) {
	const client = comm.NodeID(1)
	update := comm.Message{To: comm.FederatorID, Round: 3, Kind: comm.KindUpdate}
	dispatch := func(w nn.Weights) comm.Message {
		return comm.Message{To: comm.FederatorID, Round: 3, Kind: comm.KindTrain, Payload: TrainPayload{Global: w}}
	}
	offload := func(w nn.Weights) comm.Message {
		return comm.Message{To: comm.FederatorID, Round: 3, Kind: comm.KindOffload, Payload: OffloadPayload{Weak: client, Weights: w}}
	}
	// The client dispatches round 3 to itself, as an edge's re-dispatch
	// reaches a member.
	retrain := comm.Message{To: client, Round: 3, Kind: comm.KindTrain}
	rawUpdate := func(w nn.Weights) comm.Message {
		return comm.Message{To: comm.FederatorID, Round: 3, Kind: comm.KindUpdate, Payload: UpdatePayload{Update: Update{Client: client, Round: 3, Weights: w}}}
	}
	for _, tc := range []struct {
		name   string
		crash  bool // client down from 10 ms to 30 ms
		script func(clientEnv func(at time.Duration, fn func(comm.Env)), bw *Bandwidth, skew *time.Duration)
		want   string // "" passes
	}{
		{"send while down", true, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			at(20*time.Millisecond, func(env comm.Env) { env.Send(update) })
		}, "between its crash and rejoin"},
		{"send after the rejoin", true, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			at(40*time.Millisecond, func(env comm.Env) { env.Send(update) })
		}, ""},
		{"clock goes back", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, skew *time.Duration) {
			at(20*time.Millisecond, func(env comm.Env) { env.Send(update); *skew = 5 * time.Millisecond })
			at(22*time.Millisecond, func(env comm.Env) { env.After(time.Millisecond, func() {}) })
		}, "clock went back"},
		{"second update in one incarnation", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			at(20*time.Millisecond, func(env comm.Env) { env.Send(update) })
			at(40*time.Millisecond, func(env comm.Env) { env.Send(update) })
		}, "second update for round 3"},
		{"one update per incarnation", true, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			at(5*time.Millisecond, func(env comm.Env) { env.Send(update) })
			at(40*time.Millisecond, func(env comm.Env) { env.Send(update) })
		}, ""},
		{"one update per dispatch", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			at(5*time.Millisecond, func(env comm.Env) { env.Send(retrain) })
			at(10*time.Millisecond, func(env comm.Env) { env.Send(update) })
			at(20*time.Millisecond, func(env comm.Env) { env.Send(retrain) })
			at(40*time.Millisecond, func(env comm.Env) { env.Send(update) })
		}, ""},
		{"second update in one dispatch", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			at(5*time.Millisecond, func(env comm.Env) { env.Send(retrain) })
			at(10*time.Millisecond, func(env comm.Env) { env.Send(update) })
			at(20*time.Millisecond, func(env comm.Env) { env.Send(retrain) })
			at(30*time.Millisecond, func(env comm.Env) { env.Send(update) })
			at(40*time.Millisecond, func(env comm.Env) { env.Send(update) })
		}, "second update for round 3"},
		{"uncounted send", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			at(20*time.Millisecond, func(env comm.Env) { env.Send(comm.Message{To: comm.FederatorID, Kind: comm.KindProfile, Size: 64}) })
		}, "ledger holds 0 B, the actors sent 64 B"},
		{"counted send", false, func(at func(time.Duration, func(comm.Env)), bw *Bandwidth, _ *time.Duration) {
			at(20*time.Millisecond, func(env comm.Env) { bw.send(env, comm.Message{To: comm.FederatorID, Kind: comm.KindProfile, Size: 64}) })
		}, ""},
		{"dispatched global written", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			w := nn.Weights{Feature: []float64{1, 2}, Classifier: []float64{3}}
			at(20*time.Millisecond, func(env comm.Env) { env.Send(dispatch(w)) })
			at(40*time.Millisecond, func(comm.Env) { w.Classifier[0] = -3 })
		}, "global node 1 dispatched for round 3 was written after its send"},
		{"dispatched global shared", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			w := nn.Weights{Feature: []float64{1, 2}, Classifier: []float64{3}}
			at(20*time.Millisecond, func(env comm.Env) { env.Send(dispatch(w)) })
			at(40*time.Millisecond, func(env comm.Env) { env.Send(dispatch(w)) })
		}, ""},
		{"offload written", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			w := nn.Weights{Feature: []float64{1, 2}, Classifier: []float64{3}}
			at(20*time.Millisecond, func(env comm.Env) { env.Send(offload(w)) })
			at(40*time.Millisecond, func(comm.Env) { w.Feature[1] = -2 })
		}, "offload node 1 shipped for round 3 was written after its send"},
		{"offload re-shipped", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			w := nn.Weights{Feature: []float64{1, 2}, Classifier: []float64{3}}
			at(20*time.Millisecond, func(env comm.Env) { env.Send(offload(w)) })
			at(40*time.Millisecond, func(env comm.Env) { env.Send(offload(w)) })
		}, ""},
		{"update written in flight", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			w := nn.Weights{Feature: []float64{1, 2}, Classifier: []float64{3}}
			at(20*time.Millisecond, func(env comm.Env) { env.Send(rawUpdate(w)); w.Feature[0] = -1 })
		}, "update node 1 sent for round 3 was written before its delivery"},
		{"update recycled after delivery", false, func(at func(time.Duration, func(comm.Env)), _ *Bandwidth, _ *time.Duration) {
			w := nn.Weights{Feature: []float64{1, 2}, Classifier: []float64{3}}
			at(20*time.Millisecond, func(env comm.Env) { env.Send(rawUpdate(w)) })
			at(40*time.Millisecond, func(comm.Env) { w.Feature[0] = -1 })
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var skew time.Duration
			ct := chaos.New(skewNet{sim.NewNetwork(sim.NewKernel(), nil), &skew}, chaos.Plan{}, 1)
			if tc.crash {
				ct.ScheduleCrash(client, 10*time.Millisecond, 20*time.Millisecond)
			}
			bw := &Bandwidth{}
			tr := checkInvariants(&Cluster{Bandwidth: bw, lanes: newLaneGroup()}, TransportSim, ct)
			tr.Register(comm.FederatorID, idle{})
			tr.Register(client, idle{})
			if err := tr.Seal(); err != nil {
				t.Fatal(err)
			}
			at := func(d time.Duration, fn func(comm.Env)) {
				tr.Invoke(comm.FederatorID, func(fed comm.Env) {
					fed.After(d, func() { tr.Invoke(client, fn) })
				})
			}
			tc.script(at, bw, &skew)
			if err := tr.Drive(nil); err != nil {
				t.Fatal(err)
			}
			err := tr.Close()
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("checker said %v, want %q", err, tc.want)
			}
		})
	}
}

// TestInvariantsCatchATwoOwnerReturn drives the owner guard through a run's
// free list: a pair returned once per lease passes, a recombined pair (one
// lease's feature vector with another's classifier) passes, and a vector
// returned while it is idle — the pair whole, or one half of it — is caught.
func TestInvariantsCatchATwoOwnerReturn(t *testing.T) {
	pair := func() nn.Weights { return nn.Weights{Feature: make([]float64, 4), Classifier: make([]float64, 2)} }
	for _, tc := range []struct {
		name   string
		script func(g *laneGroup)
		caught bool
	}{
		{"lease and return", func(g *laneGroup) {
			g.putWeights(pair())
			w := g.takeWeights()
			g.putWeights(w)
		}, false},
		{"recombined pair", func(g *laneGroup) {
			a, b := pair(), pair()
			g.putWeights(nn.Weights{Feature: b.Feature, Classifier: a.Classifier})
			g.putWeights(pair())
		}, false},
		{"pair returned twice", func(g *laneGroup) {
			w := pair()
			g.putWeights(w)
			g.putWeights(w)
		}, true},
		{"half returned twice", func(g *laneGroup) {
			w := pair()
			g.putWeights(w)
			g.putWeights(nn.Weights{Feature: pair().Feature, Classifier: w.Classifier[:1]})
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newLaneGroup()
			o := guardOwners(g)
			tc.script(g)
			if err := o.failure(); (err != nil) != tc.caught {
				t.Fatalf("guard said %v, want caught = %v", err, tc.caught)
			}
		})
	}
}
