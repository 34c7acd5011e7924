package comm_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/comm"
	"aergia/internal/hier"
	"aergia/internal/obs"
	"aergia/internal/sim"
)

// pinger bounces a message off its peer until its budget is spent, and
// remembers every distinct env a delivery handed it.
type pinger struct {
	peer comm.NodeID
	left int
	envs map[comm.Env]bool
}

func (p *pinger) OnMessage(env comm.Env, _ comm.Message) {
	p.envs[env] = true
	if p.left--; p.left > 0 {
		env.Send(comm.Message{To: p.peer, Kind: comm.KindUpdate, Size: 64})
	}
}

// TestStackHoldsOneEnvPerNode is the regression test for the env cache the
// metrics and routing wrappers keyed by the inner env's identity: sim and
// rpc mint a fresh inner env per delivery, so that cache gained one entry
// per message (2000 deliveries, 2000 cached envs) and never hit. The stack
// keys by node, so its size and its allocations per message are flat.
func TestStackHoldsOneEnvPerNode(t *testing.T) {
	run := func(deliveries int) (*comm.Stack, *pinger, *pinger, int) {
		counted := 0
		metrics := comm.Interceptor{
			Send:    func(l comm.Layer, msg comm.Message) { counted++; l.Send(msg) },
			Deliver: func(l comm.Layer, msg comm.Message) { counted++; l.Deliver(msg) },
		}
		s := metrics.On(sim.NewNetwork(sim.NewKernel(), nil))
		a := &pinger{peer: 1, left: deliveries / 2, envs: make(map[comm.Env]bool)}
		b := &pinger{peer: 0, left: deliveries/2 + 1, envs: make(map[comm.Env]bool)}
		s.Register(0, a)
		s.Register(1, b)
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		s.Invoke(0, func(env comm.Env) { env.Send(comm.Message{To: 1, Kind: comm.KindUpdate}) })
		if err := s.Drive(nil); err != nil {
			t.Fatal(err)
		}
		return s, a, b, counted
	}

	const deliveries = 10000
	s, a, b, counted := run(deliveries)
	if a.left != 0 || counted != 2*deliveries {
		t.Fatalf("ping-pong stopped early: %d trips left, %d hook calls, want 0 and %d", a.left, counted, 2*deliveries)
	}
	if got := s.Envs(); got != 2 {
		t.Fatalf("stack holds %d envs after %d deliveries, want one per registered node (2)", got, deliveries)
	}
	for id, p := range map[comm.NodeID]*pinger{0: a, 1: b} {
		if len(p.envs) != 1 || !p.envs[s.Env(id)] {
			t.Fatalf("node %d saw %d distinct envs, want exactly the one Env(%d) returns", id, len(p.envs), id)
		}
	}

	perMessage := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { run(n) }) / float64(n)
	}
	short, long := perMessage(deliveries/10), perMessage(deliveries)
	if long > short*1.02 {
		t.Fatalf("allocations per message grew with the message count: %.3f over %d, %.3f over %d",
			short, deliveries/10, long, deliveries)
	}
}

// foreign is a comm.Transport decorator that is not a Stack: what a caller
// outside this repository's packages would splice between two wrap calls.
// It forwards the two optional interfaces by hand, as such a decorator must.
type foreign struct{ comm.Transport }

func (f foreign) RegisterPayload(v any) {
	if reg, ok := f.Transport.(comm.PayloadRegistry); ok {
		reg.RegisterPayload(v)
	}
}

func (f foreign) Register(id comm.NodeID, h comm.Handler) {
	f.Transport.Register(id, foreignHandler{h})
}

type foreignHandler struct{ comm.Handler }

func (h foreignHandler) OnRejoin(env comm.Env) {
	if r, ok := h.Handler.(comm.Rejoiner); ok {
		r.OnRejoin(env)
	}
}

// bottom is the inner transport of the forwarding tests: a sim.Network that
// remembers what was registered on it and counts RegisterPayload calls.
type bottom struct {
	*sim.Network
	handlers map[comm.NodeID]comm.Handler
	payloads int
}

func newBottom() *bottom {
	return &bottom{Network: sim.NewNetwork(sim.NewKernel(), nil), handlers: make(map[comm.NodeID]comm.Handler)}
}

func (b *bottom) Register(id comm.NodeID, h comm.Handler) {
	b.handlers[id] = h
	b.Network.Register(id, h)
}

func (b *bottom) RegisterPayload(any) { b.payloads++ }

// phoenix is a client that answers its resurrection with an uplink.
type phoenix struct{ rejoins int }

func (*phoenix) OnMessage(comm.Env, comm.Message) {}

func (p *phoenix) OnRejoin(env comm.Env) {
	p.rejoins++
	env.Send(comm.Message{To: comm.FederatorID, Kind: comm.KindUpdate, Size: 8})
}

// inbox keeps what reached a node.
type inbox struct{ got []comm.Message }

func (i *inbox) OnMessage(_ comm.Env, msg comm.Message) { i.got = append(i.got, msg) }

func (i *inbox) updates() []comm.Message {
	var out []comm.Message
	for _, m := range i.got {
		if m.Kind == comm.KindUpdate {
			out = append(out, m)
		}
	}
	return out
}

// TestRejoinAndPayloadsCrossEveryStack replaces the per-wrapper forwarding
// tests: whatever subset of the four interceptors is stacked (in the order
// fl stacks them), and wherever a foreign decorator splits the stack in two,
// a rejoin reaches the actor exactly once with an env whose Send crosses
// every layer, and RegisterPayload reaches the inner transport.
func TestRejoinAndPayloadsCrossEveryStack(t *testing.T) {
	const (
		seed, tiers = 5, 3
		client      = comm.NodeID(7)
		fault       = 1 << iota
		metrics
		tracer
		route
		all = fault | metrics | tracer | route
	)
	names := map[int]string{fault: "chaos", metrics: "metrics", tracer: "tracer", route: "route"}
	type tcase struct{ layers, foreignAbove int }
	var cases []tcase
	for set := 1; set <= all; set++ {
		cases = append(cases, tcase{layers: set})
	}
	for _, below := range []int{fault, metrics, tracer} {
		cases = append(cases, tcase{layers: all, foreignAbove: below})
	}
	for _, tc := range cases {
		var name []string
		for _, l := range []int{fault, metrics, tracer, route} {
			if tc.layers&l != 0 {
				name = append(name, names[l])
			}
			if tc.foreignAbove == l {
				name = append(name, "foreign")
			}
		}
		t.Run(strings.Join(name, "+"), func(t *testing.T) {
			inner := newBottom()
			reg := obs.NewRegistry()
			var ct *chaos.Transport
			wraps := map[int]func(comm.Transport) comm.Transport{
				fault: func(tr comm.Transport) comm.Transport {
					// Every message draws a link delay, so Stats().Delayed
					// counts the sends that crossed the fault layer.
					ct = chaos.New(tr, chaos.Plan{Delay: time.Millisecond}, seed)
					ct.ScheduleCrash(client, 10*time.Millisecond, 10*time.Millisecond)
					return ct
				},
				metrics: func(tr comm.Transport) comm.Transport { return obs.WrapTransport(tr, reg) },
				tracer:  func(tr comm.Transport) comm.Transport { return obs.NewTracer(seed).Wrap(tr) },
				route:   func(tr comm.Transport) comm.Transport { return hier.Route(tr, tiers, seed) },
			}
			var tr comm.Transport = inner
			for _, l := range []int{fault, metrics, tracer, route} {
				if tc.layers&l != 0 {
					tr = wraps[l](tr)
				}
				if tc.foreignAbove == l {
					tr = foreign{tr}
				}
			}

			actor, fed, edge := &phoenix{}, &inbox{}, &inbox{}
			owner := hier.EdgeID(hier.Assign(seed, client, tiers))
			tr.Register(client, actor)
			tr.Register(comm.FederatorID, fed)
			tr.Register(owner, edge)
			if err := tr.Seal(); err != nil {
				t.Fatal(err)
			}
			if tc.layers&fault == 0 {
				// No fault layer in this stack: the rejoin comes from one
				// below the inner transport, through the handler it holds.
				inner.handlers[client].(comm.Rejoiner).OnRejoin(inner.Env(client))
			}
			if err := tr.Drive(nil); err != nil {
				t.Fatal(err)
			}

			if actor.rejoins != 1 {
				t.Fatalf("OnRejoin reached the actor %d times, want once", actor.rejoins)
			}
			at := fed
			if tc.layers&route != 0 {
				at = edge
			}
			got := at.updates()
			if len(got) != 1 || len(fed.updates())+len(edge.updates()) != 1 {
				t.Fatalf("the rejoin uplink arrived %d times at the federator and %d at the edge (route stacked: %v)",
					len(fed.updates()), len(edge.updates()), tc.layers&route != 0)
			}
			if traced := got[0].Span.Traced(); traced != (tc.layers&tracer != 0) {
				t.Fatalf("uplink traced = %v with tracer stacked = %v", traced, tc.layers&tracer != 0)
			}
			sent := reg.CounterVec("aergia_comm_messages_total", "", "kind", "dir").With("update", obs.DirSent).Value()
			if want := float64(tc.layers & metrics / metrics); sent != want {
				t.Fatalf("metrics counted %v update sends, want %v", sent, want)
			}
			if ct != nil {
				// The uplink, plus the two fault notices route tees to the edge.
				want := 1
				if tc.layers&route != 0 {
					want = 3
				}
				if st := ct.Stats(); st.Rejoins != 1 || st.Delayed != want {
					t.Fatalf("fault layer saw %+v, want 1 rejoin and %d delayed sends", st, want)
				}
			}

			tr.(comm.PayloadRegistry).RegisterPayload(struct{}{})
			if inner.payloads != 1 {
				t.Fatalf("RegisterPayload reached the inner transport %d times, want once", inner.payloads)
			}
		})
	}
}

// hookLog is the shared record of the hook-order test.
type hookLog struct{ lines []string }

func (h *hookLog) add(format string, args ...any) {
	h.lines = append(h.lines, fmt.Sprintf(format, args...))
}

// matching returns the lines that contain every one of parts.
func (h *hookLog) matching(parts ...string) []string {
	var out []string
	for _, l := range h.lines {
		ok := true
		for _, p := range parts {
			ok = ok && strings.Contains(l, p)
		}
		if ok {
			out = append(out, l)
		}
	}
	return out
}

// recorder logs every hook at one position of the stack and passes it on.
// A deliver hook may also stall, to show up in the layers that time it.
func recorder(log *hookLog, pos string, stall time.Duration) comm.Interceptor {
	return comm.Interceptor{
		Send: func(l comm.Layer, msg comm.Message) {
			log.add("send %s node=%d to=%d kind=%s traced=%v", pos, l.ID(), msg.To, msg.Kind, msg.Span.Traced())
			l.Send(msg)
		},
		Deliver: func(l comm.Layer, msg comm.Message) {
			log.add("deliver %s node=%d kind=%s", pos, l.ID(), msg.Kind)
			time.Sleep(stall)
			l.Deliver(msg)
			log.add("delivered %s node=%d kind=%s", pos, l.ID(), msg.Kind)
		},
		After: func(l comm.Layer, d time.Duration, fn func()) comm.Timer {
			log.add("timer %s node=%d d=%v", pos, l.ID(), d)
			return l.After(d, fn)
		},
	}
}

// script is an actor driven by the hook-order test.
type script struct {
	log  *hookLog
	name string
	on   func(env comm.Env, msg comm.Message)
}

func (s *script) OnMessage(env comm.Env, msg comm.Message) {
	s.log.add("actor %s got kind=%s", s.name, msg.Kind)
	if s.on != nil {
		s.on(env, msg)
	}
}

func (s *script) OnRejoin(comm.Env) { s.log.add("actor %s rejoined", s.name) }

// TestHookOrder pins DESIGN.md §15's table: a recorder at each position of
// the stack fl builds — r0 under the fault layer, r1 above it, r2 above
// metrics, r3 above the tracer, r4 above routing — logs one scripted run.
func TestHookOrder(t *testing.T) {
	const (
		seed, tiers = 5, 2
		sender      = comm.NodeID(0) // sends one uplink, arms one timer
		victim      = comm.NodeID(1) // crashes with a timer armed, rejoins
		stall       = 5 * time.Millisecond
	)
	log := &hookLog{}
	reg := obs.NewRegistry()
	spans := obs.NewSpanLog()
	// Every client's compute is spiked ×3 from within the first millisecond
	// on; every message draws a link delay.
	plan := chaos.Plan{Delay: time.Millisecond, SpikeProb: 1, Spike: 3, Window: time.Millisecond, SpikeLen: time.Hour}

	var tr comm.Transport = recorder(log, "r0", 0).On(sim.NewNetwork(sim.NewKernel(), nil))
	ct := chaos.New(tr, plan, seed)
	ct.ScheduleCrash(victim, 50*time.Millisecond, 50*time.Millisecond)
	tr = recorder(log, "r1", 0).On(ct)
	tr = recorder(log, "r2", 0).On(obs.WrapTransport(tr, reg))
	tr = recorder(log, "r3", stall).On(obs.NewTracer(seed, spans).Wrap(tr))
	tr = recorder(log, "r4", stall).On(hier.Route(tr, tiers, seed))

	armed, fired := false, false
	clients := map[comm.NodeID]*script{
		sender: {log: log, name: "sender"},
		// The victim arms a timer before its crash, to fire after it.
		victim: {log: log, name: "victim", on: func(env comm.Env, _ comm.Message) {
			if !armed {
				armed = true
				env.After(70*time.Millisecond, func() { fired = true })
			}
		}},
	}
	fed := &script{log: log, name: "fed", on: func(env comm.Env, msg comm.Message) {
		// A rejoin notice is answered with a dispatch, which must find the
		// actor already rejoined.
		if fp, ok := msg.Payload.(comm.FaultPayload); ok && !fp.Down {
			env.Send(comm.Message{To: fp.Node, Kind: comm.KindTrain})
		}
	}}
	for id, c := range clients {
		tr.Register(id, c)
	}
	tr.Register(comm.FederatorID, fed)
	edges := map[comm.NodeID]bool{}
	for id := range clients {
		if e := hier.EdgeID(hier.Assign(seed, id, tiers)); !edges[e] {
			edges[e] = true
			tr.Register(e, &script{log: log, name: fmt.Sprintf("edge%d", e)})
		}
	}
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	tr.Invoke(comm.FederatorID, func(env comm.Env) {
		env.Send(comm.Message{To: victim, Kind: comm.KindTrain})
	})
	tr.Invoke(sender, func(env comm.Env) {
		env.After(2*time.Millisecond, func() { // inside the spike window
			env.Send(comm.Message{To: comm.FederatorID, Kind: comm.KindUpdate, Size: 8})
			env.After(10*time.Millisecond, func() {})
		})
	})
	if err := tr.Drive(nil); err != nil {
		t.Fatal(err)
	}
	want := func(what string, got, want []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s:\n got  %q\n want %q\nfull log:\n%s", what, got, want, strings.Join(log.lines, "\n"))
		}
	}
	senderEdge := hier.EdgeID(hier.Assign(seed, sender, tiers))
	victimEdge := hier.EdgeID(hier.Assign(seed, victim, tiers))

	// Send, outer→inner: route rewrites To on the sender's ID, the tracer
	// stamps, metrics count, the fault layer draws the delay — and re-sends
	// from a timer below itself, which no layer above (its own spike scaling
	// and incarnation guard included) ever sees.
	want("uplink send", log.matching("send ", "kind=update"), []string{
		fmt.Sprintf("send r4 node=0 to=%d kind=update traced=false", comm.FederatorID),
		fmt.Sprintf("send r3 node=0 to=%d kind=update traced=false", senderEdge),
		fmt.Sprintf("send r2 node=0 to=%d kind=update traced=true", senderEdge),
		fmt.Sprintf("send r1 node=0 to=%d kind=update traced=true", senderEdge),
		fmt.Sprintf("send r0 node=0 to=%d kind=update traced=true", senderEdge),
	})
	if got := reg.CounterVec("aergia_comm_messages_total", "", "kind", "dir").With("update", obs.DirSent).Value(); got != 1 {
		t.Fatalf("metrics counted %v update sends, want 1", got)
	}
	delays := log.matching("timer r0 node=0")
	if len(delays) != 3 || len(log.matching("timer ", "node=0")) != 3+2*4 {
		t.Fatalf("sender timers: %q — want its two timers at every position and the link delay at r0 only", log.matching("timer ", "node=0"))
	}

	// Deliver, inner→outer, each hook bracketing everything above it.
	want("uplink delivery", log.matching("node="+fmt.Sprint(senderEdge), "kind=update"), []string{
		fmt.Sprintf("deliver r0 node=%d kind=update", senderEdge),
		fmt.Sprintf("deliver r1 node=%d kind=update", senderEdge),
		fmt.Sprintf("deliver r2 node=%d kind=update", senderEdge),
		fmt.Sprintf("deliver r3 node=%d kind=update", senderEdge),
		fmt.Sprintf("deliver r4 node=%d kind=update", senderEdge),
		fmt.Sprintf("delivered r4 node=%d kind=update", senderEdge),
		fmt.Sprintf("delivered r3 node=%d kind=update", senderEdge),
		fmt.Sprintf("delivered r2 node=%d kind=update", senderEdge),
		fmt.Sprintf("delivered r1 node=%d kind=update", senderEdge),
		fmt.Sprintf("delivered r0 node=%d kind=update", senderEdge),
	})
	// The metrics layer's service time covers the layers above it: r3 and
	// r4 each stalled the delivery.
	handle := reg.HistogramVec("aergia_comm_handle_seconds", "", nil, "kind").With("update")
	if handle.Count() != 1 || handle.Sum() < (2*stall).Seconds() {
		t.Fatalf("metrics timed %d update deliveries at %.4fs, want 1 of at least %v", handle.Count(), handle.Sum(), 2*stall)
	}

	// Timers, outer→inner: the fault layer scales by the spike factor at
	// schedule time, so only r0 sees the stretched duration.
	want("sender's 10ms timer", log.matching("timer ", "node=0", "d=10ms"), []string{
		"timer r4 node=0 d=10ms", "timer r3 node=0 d=10ms", "timer r2 node=0 d=10ms", "timer r1 node=0 d=10ms",
	})
	if got := log.matching("timer r0 node=0 d=30ms"); len(got) != 1 {
		t.Fatalf("the spiked 10ms timer reached r0 %d times as 30ms, want once", len(got))
	}
	// ...and guards on the incarnation at fire time.
	if st := ct.Stats(); fired || st.SuppressedTimers != 1 || st.Crashes != 1 || st.Rejoins != 1 {
		t.Fatalf("victim's timer fired = %v across its crash; stats %+v", fired, st)
	}

	// Injected events: both notices enter the federator's deliver chain
	// above the fault layer, so r0 never sees them and metrics count them.
	want("fault notices at the federator", log.matching("deliver ", fmt.Sprintf("node=%d", comm.FederatorID), "kind=fault"), []string{
		"deliver r1 node=-1 kind=fault", "deliver r2 node=-1 kind=fault", "deliver r3 node=-1 kind=fault", "deliver r4 node=-1 kind=fault",
		"deliver r1 node=-1 kind=fault", "deliver r2 node=-1 kind=fault", "deliver r3 node=-1 kind=fault", "deliver r4 node=-1 kind=fault",
	})
	// Route tees each to the victim's edge through the layers below route:
	// stamped by the tracer, counted by metrics, link-drawn by the fault
	// layer.
	tee := []string{
		fmt.Sprintf("send r3 node=-1 to=%d kind=fault traced=false", victimEdge),
		fmt.Sprintf("send r2 node=-1 to=%d kind=fault traced=true", victimEdge),
		fmt.Sprintf("send r1 node=-1 to=%d kind=fault traced=true", victimEdge),
		fmt.Sprintf("send r0 node=-1 to=%d kind=fault traced=true", victimEdge),
	}
	want("tee'd copies", log.matching("send ", "kind=fault"), append(slices.Clone(tee), tee...))
	delivered := reg.CounterVec("aergia_comm_messages_total", "", "kind", "dir")
	if s, d := delivered.With("fault", obs.DirSent).Value(), delivered.With("fault", obs.DirDelivered).Value(); s != 2 || d != 4 {
		t.Fatalf("metrics counted %v fault sends and %v deliveries, want 2 tee'd sends and 2+2 deliveries", s, d)
	}
	faultSpans := 0
	for _, s := range spans.Spans() {
		if s.Kind == comm.KindFault && s.From == comm.FederatorID && s.To == victimEdge {
			faultSpans++
		}
	}
	if faultSpans != 2 {
		t.Fatalf("tracer closed %d spans for the tee'd notices, want 2", faultSpans)
	}

	// Rejoin: the actor is rebuilt before anything the federator sends on
	// the notice can reach it.
	want("victim's life", log.matching("actor victim"), []string{
		"actor victim got kind=train", "actor victim rejoined", "actor victim got kind=train",
	})
}

// ranged is a node of a registered range: it answers a dispatch with an
// uplink and logs what reached it.
type ranged struct {
	id  comm.NodeID
	log *hookLog
}

func (r *ranged) OnMessage(env comm.Env, msg comm.Message) {
	r.log.add("node=%d got kind=%s from=%d at=%v", r.id, msg.Kind, msg.From, env.Now())
	if msg.Kind == comm.KindTrain {
		env.Send(comm.Message{To: comm.FederatorID, Kind: comm.KindUpdate, Size: 8})
	}
}

// TestRangeActivatesOnFirstUse: a ranged node costs nothing until something
// addresses it, and then it is activated exactly once — its handler built,
// its interceptor state made — whether that first use is a delivery, Env
// or Invoke. An ID outside every range still panics. Over a transport
// without RangeRegistry the range is expanded at registration, and the run
// delivers exactly what the lazy one does.
func TestRangeActivatesOnFirstUse(t *testing.T) {
	const lo, hi = 10, 20
	run := func(inner comm.Transport) (built, states map[comm.NodeID]int, log *hookLog) {
		built, states, log = map[comm.NodeID]int{}, map[comm.NodeID]int{}, &hookLog{}
		s := comm.Interceptor{
			State: func(id comm.NodeID) any { states[id]++; return id },
			Deliver: func(l comm.Layer, msg comm.Message) {
				if l.State() != l.ID() {
					t.Errorf("node %d holds state %v", l.ID(), l.State())
				}
				l.Deliver(msg)
			},
		}.On(inner)
		s.Register(comm.FederatorID, &inbox{})
		comm.RegisterRange(s, lo, hi, func(id comm.NodeID) comm.Handler {
			built[id]++
			return &ranged{id: id, log: log}
		})
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		// First use by Env (twice), by Invoke, and by a delivery; 13 is
		// addressed by all three after its first.
		s.Env(11).Now()
		s.Env(11).Now()
		s.Invoke(12, func(env comm.Env) { env.Send(comm.Message{To: comm.FederatorID, Kind: comm.KindUpdate}) })
		s.Invoke(comm.FederatorID, func(env comm.Env) {
			for _, id := range []comm.NodeID{13, 12, 13} {
				env.Send(comm.Message{To: id, Kind: comm.KindTrain, Size: 16})
			}
		})
		if err := s.Drive(nil); err != nil {
			t.Fatal(err)
		}
		s.Invoke(13, func(comm.Env) {})
		s.Env(13)
		if err := s.Drive(nil); err != nil {
			t.Fatal(err)
		}
		for _, id := range []comm.NodeID{hi, lo - 1, 0} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not registered") {
						t.Errorf("Env(%d) outside the range: recovered %v, want the not-registered panic", id, r)
					}
				}()
				s.Env(id)
			}()
		}
		return built, states, log
	}

	built, states, lazy := run(sim.NewNetwork(sim.NewKernel(), nil))
	for id := comm.NodeID(lo); id < hi; id++ {
		want := 0
		if id >= 11 && id <= 13 {
			want = 1
		}
		if built[id] != want || states[id] != want {
			t.Fatalf("node %d activated %d times (state made %d times), want %d", id, built[id], states[id], want)
		}
	}
	if len(built) != 3 || states[comm.FederatorID] != 1 {
		t.Fatalf("built %v, states %v: want 11, 12 and 13 once, and the federator's state once", built, states)
	}

	built, states, eager := run(foreign{sim.NewNetwork(sim.NewKernel(), nil)})
	if len(built) != hi-lo || len(states) != hi-lo+1 {
		t.Fatalf("over a transport without ranges %d of %d nodes were built and %d states made, want all", len(built), hi-lo, len(states))
	}
	if len(lazy.lines) != 3 || !slices.Equal(lazy.lines, eager.lines) {
		t.Fatalf("lazy and eager registration delivered differently:\n lazy  %q\n eager %q", lazy.lines, eager.lines)
	}

	net := sim.NewNetwork(sim.NewKernel(), nil)
	comm.RegisterRange(net, lo, hi, func(id comm.NodeID) comm.Handler { return &inbox{} })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "unregistered node 20") {
			t.Fatalf("a send outside the range: recovered %v, want the unregistered-node panic", r)
		}
	}()
	net.Env(lo).Send(comm.Message{To: hi, Kind: comm.KindTrain})
}
