package fl

import (
	"fmt"
	"math"
	"os"
	"strings"
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
//   - a client or edge sends at most one update per (round, incarnation),
//     an incarnation ending at each crash notice;
//   - the run's bandwidth ledger equals the summed Size of what the actors
//     sent;
//   - a dispatched TrainPayload.Global is never written: the federators and
//     the edges send one snapshot by reference to a whole round, so a holder
//     that wrote it would change every other holder's model. Each distinct
//     backing array is hashed at its first send and again at Close.
type invariants struct {
	*comm.Stack
	bw *Bandwidth

	// Unguarded: the simulator runs every hook on its one goroutine (lanes
	// send nothing), and the race detector holds the checker to that.
	now     map[comm.NodeID]time.Duration
	down    map[comm.NodeID]bool
	crashes map[comm.NodeID]int
	updates map[[3]int]bool // (node, incarnation, round)
	globals map[*float64]sentGlobal
	sent    int64
	err     error
}

// sentGlobal is a dispatched global as its first send found it.
type sentGlobal struct {
	w     nn.Weights
	hash  uint64
	from  comm.NodeID
	round int
}

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

func checkInvariants(bw *Bandwidth, transport string, inner comm.Transport) comm.Transport {
	if name, _ := CanonicalTransport(transport); name != TransportSim {
		return inner // wall-clock runs keep no per-node order to check
	}
	v := &invariants{
		bw:      bw,
		now:     make(map[comm.NodeID]time.Duration),
		down:    make(map[comm.NodeID]bool),
		crashes: make(map[comm.NodeID]int),
		updates: make(map[[3]int]bool),
		globals: make(map[*float64]sentGlobal),
	}
	v.Stack = comm.Interceptor{Send: v.send, Deliver: v.deliver, After: v.after}.On(inner)
	return v
}

// dispatched records a train payload's global at its backing array's first
// send.
func (v *invariants) dispatched(from comm.NodeID, msg comm.Message) {
	p, ok := msg.Payload.(TrainPayload)
	if !ok || len(p.Global.Feature) == 0 {
		return
	}
	key := &p.Global.Feature[0]
	if _, seen := v.globals[key]; !seen {
		v.globals[key] = sentGlobal{w: p.Global, hash: hashWeights(p.Global), from: from, round: msg.Round}
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
		k := [3]int{int(id), v.crashes[id], msg.Round}
		if v.updates[k] {
			v.failf("node %d sent a second update for round %d in one incarnation", id, msg.Round)
		}
		v.updates[k] = true
	}
	if msg.Kind == comm.KindTrain {
		v.dispatched(id, msg)
	}
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
	l.Deliver(msg)
}

func (v *invariants) after(l comm.Layer, d time.Duration, fn func()) comm.Timer {
	v.tick(l)
	return l.After(d, fn)
}

// Close closes the stack and reports the first violation, checking the
// bandwidth ledger and the dispatched globals last: by now every send of the
// run has been counted and every holder of a global is done with it.
func (v *invariants) Close() error {
	err := v.Stack.Close()
	if total := v.bw.Snapshot().TotalBytes; total != v.sent {
		v.failf("the bandwidth ledger holds %d B, the actors sent %d B", total, v.sent)
	}
	for _, g := range v.globals {
		if hashWeights(g.w) != g.hash {
			v.failf("the global node %d dispatched for round %d was written after its send", g.from, g.round)
		}
	}
	if v.err != nil {
		return v.err
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			var skew time.Duration
			ct := chaos.New(skewNet{sim.NewNetwork(sim.NewKernel(), nil), &skew}, chaos.Plan{}, 1)
			if tc.crash {
				ct.ScheduleCrash(client, 10*time.Millisecond, 20*time.Millisecond)
			}
			bw := &Bandwidth{}
			tr := checkInvariants(bw, TransportSim, ct)
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
