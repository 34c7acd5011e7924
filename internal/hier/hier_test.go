package hier

import (
	"testing"
	"time"

	"aergia/internal/comm"
)

func TestOptionsNormalized(t *testing.T) {
	for _, bad := range []Options{
		{Sample: -0.1},
		{Sample: 1.5},
		{Tiers: -1},
	} {
		if _, err := bad.Normalized(); err == nil {
			t.Fatalf("Normalized(%+v) accepted", bad)
		}
	}
	// Sample 1.0 collapses to the zero value: "everyone participates" has
	// exactly one normalized encoding.
	got, err := (Options{Sample: 1}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got != (Options{}) {
		t.Fatalf("Sample 1.0 normalized to %+v, want the zero value", got)
	}
	if got.Enabled() {
		t.Fatal("normalized Sample 1.0 reports enabled")
	}
	for _, on := range []Options{{Sample: 0.5}, {Tiers: 2}} {
		norm, err := on.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if !norm.Enabled() {
			t.Fatalf("%+v not enabled after normalization", on)
		}
	}
}

func TestEdgeIDs(t *testing.T) {
	for k := 0; k < 5; k++ {
		id := EdgeID(k)
		if !IsEdge(id) || EdgeIndex(id) != k {
			t.Fatalf("EdgeID(%d) = %d round-trips to %d", k, id, EdgeIndex(id))
		}
	}
	if IsEdge(comm.FederatorID) || IsEdge(0) || IsEdge(7) {
		t.Fatal("IsEdge misclassifies federator or client IDs")
	}
}

func TestAssignStableAndCovering(t *testing.T) {
	const seed, tiers, n = 42, 8, 1000
	counts := make([]int, tiers)
	for i := 0; i < n; i++ {
		k := Assign(seed, comm.NodeID(i), tiers)
		if k != Assign(seed, comm.NodeID(i), tiers) {
			t.Fatalf("Assign unstable for client %d", i)
		}
		if k < 0 || k >= tiers {
			t.Fatalf("Assign(%d) = %d outside [0,%d)", i, k, tiers)
		}
		counts[k]++
	}
	// A stable hash over 1000 clients should land a reasonable share on
	// every one of 8 edges (expected 125 each).
	for k, c := range counts {
		if c < n/tiers/2 || c > n/tiers*2 {
			t.Fatalf("edge %d owns %d of %d clients — hash badly skewed", k, c, n)
		}
	}
	if Assign(seed, 3, 1) != 0 || Assign(seed, 3, 0) != 0 {
		t.Fatal("degenerate tier counts must map to edge 0")
	}
	// Different seeds shuffle ownership.
	moved := 0
	for i := 0; i < n; i++ {
		if Assign(seed, comm.NodeID(i), tiers) != Assign(seed+1, comm.NodeID(i), tiers) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("ownership ignores the seed")
	}
}

func TestSamplerDeterministicAndBounded(t *testing.T) {
	ids := make([]comm.NodeID, 200)
	for i := range ids {
		ids[i] = comm.NodeID(i)
	}
	s := Sampler{Seed: 7, Fraction: 0.25}
	total := 0
	for round := 0; round < 20; round++ {
		a := s.Cohort(round, ids)
		b := Sampler{Seed: 7, Fraction: 0.25}.Cohort(round, ids)
		if len(a) != len(b) {
			t.Fatalf("round %d: cohort sizes %d vs %d across sampler values", round, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: cohorts diverge at %d", round, i)
			}
		}
		if len(a) == 0 {
			t.Fatalf("round %d: empty cohort", round)
		}
		// Order-preserving subset of ids.
		prev := comm.NodeID(-1)
		for _, id := range a {
			if id <= prev {
				t.Fatalf("round %d: cohort not order-preserving", round)
			}
			prev = id
		}
		total += len(a)
	}
	// Expected 50/round over 20 rounds = 1000; a pure hash should be close.
	if total < 700 || total > 1300 {
		t.Fatalf("sampled %d of ~1000 expected — fraction not honored", total)
	}
	// Cohorts vary by round (it is per-round sampling, not a fixed subset).
	r0 := s.Cohort(0, ids)
	r1 := s.Cohort(1, ids)
	same := len(r0) == len(r1)
	for i := 0; same && i < len(r0); i++ {
		same = r0[i] == r1[i]
	}
	if same {
		t.Fatal("rounds 0 and 1 sampled identical cohorts")
	}
}

func TestSamplerMinOne(t *testing.T) {
	// A fraction far below 1/len must still draft one member per round.
	ids := []comm.NodeID{3, 9, 14}
	s := Sampler{Seed: 1, Fraction: 1e-9}
	for round := 0; round < 50; round++ {
		c := s.Cohort(round, ids)
		if len(c) != 1 {
			t.Fatalf("round %d: %d sampled with a vanishing fraction, want the min-1 draft", round, len(c))
		}
	}
}

func TestSamplerDisabledSelectsEveryone(t *testing.T) {
	ids := []comm.NodeID{0, 1, 2}
	for _, f := range []float64{0, 1, 1.5, -2} {
		s := Sampler{Seed: 9, Fraction: f}
		c := s.Cohort(4, ids)
		if len(c) != len(ids) {
			t.Fatalf("fraction %v sampled %d of %d", f, len(c), len(ids))
		}
		if !s.Selected(4, 1) {
			t.Fatalf("fraction %v rejected a client", f)
		}
	}
}

// fakeEnv records sends for the router tests.
type fakeEnv struct {
	id   comm.NodeID
	sent []comm.Message
}

func (e *fakeEnv) Now() time.Duration                     { return 0 }
func (e *fakeEnv) Send(msg comm.Message)                  { e.sent = append(e.sent, msg) }
func (e *fakeEnv) After(time.Duration, func()) comm.Timer { return fakeTimer{} }

type fakeTimer struct{}

func (fakeTimer) Cancel() {}

// fakeTransport is the minimal comm.Transport the router tests drive.
type fakeTransport struct {
	handlers map[comm.NodeID]comm.Handler
	envs     map[comm.NodeID]*fakeEnv
	sealed   bool
}

func newFakeTransport() *fakeTransport {
	return &fakeTransport{
		handlers: make(map[comm.NodeID]comm.Handler),
		envs:     make(map[comm.NodeID]*fakeEnv),
	}
}

func (f *fakeTransport) Register(id comm.NodeID, h comm.Handler) { f.handlers[id] = h }
func (f *fakeTransport) Seal() error                             { f.sealed = true; return nil }
func (f *fakeTransport) Env(id comm.NodeID) comm.Env             { return f.env(id) }
func (f *fakeTransport) Invoke(id comm.NodeID, fn func(comm.Env)) {
	fn(f.env(id))
}
func (f *fakeTransport) Drive(<-chan struct{}) error { return nil }
func (f *fakeTransport) Close() error                { return nil }

func (f *fakeTransport) env(id comm.NodeID) *fakeEnv {
	if e, ok := f.envs[id]; ok {
		return e
	}
	e := &fakeEnv{id: id}
	f.envs[id] = e
	return e
}

// recorder captures deliveries and rejoin callbacks.
type recorder struct {
	msgs    []comm.Message
	envs    []comm.Env
	rejoins int
}

func (r *recorder) OnMessage(env comm.Env, msg comm.Message) {
	r.envs = append(r.envs, env)
	r.msgs = append(r.msgs, msg)
}

func (r *recorder) OnRejoin(comm.Env) { r.rejoins++ }

func TestRouteRewritesClientUplinks(t *testing.T) {
	const seed, tiers = 5, 3
	inner := newFakeTransport()
	rt := Route(inner, tiers, seed)
	if Route(inner, 0, seed) != comm.Transport(inner) {
		t.Fatal("Route with 0 tiers must return the inner transport")
	}
	rec := &recorder{}
	rt.Register(7, rec)
	rt.Register(comm.FederatorID, &recorder{})
	rt.Register(EdgeID(1), &recorder{})
	if err := rt.Seal(); err != nil || !inner.sealed {
		t.Fatalf("Seal not forwarded: %v", err)
	}

	// A client's send to the federator is rewritten to its owning edge...
	rt.Invoke(7, func(env comm.Env) {
		env.Send(comm.Message{To: comm.FederatorID, Kind: comm.KindUpdate})
		// ...but sends to peers and edges pass through.
		env.Send(comm.Message{To: 9, Kind: comm.KindOffload})
	})
	sent := inner.env(7).sent
	if len(sent) != 2 {
		t.Fatalf("%d messages reached the inner env, want 2", len(sent))
	}
	wantEdge := EdgeID(Assign(seed, 7, tiers))
	if sent[0].To != wantEdge {
		t.Fatalf("uplink routed to %d, want edge %d", sent[0].To, wantEdge)
	}
	if sent[1].To != 9 {
		t.Fatalf("peer send rewritten to %d", sent[1].To)
	}

	// The federator's and an edge's sends are never rewritten (negative IDs).
	rt.Invoke(comm.FederatorID, func(env comm.Env) {
		env.Send(comm.Message{To: comm.FederatorID, Kind: comm.KindUpdate})
	})
	if got := inner.env(comm.FederatorID).sent[0].To; got != comm.FederatorID {
		t.Fatalf("federator self-send rewritten to %d", got)
	}
	rt.Invoke(EdgeID(1), func(env comm.Env) {
		env.Send(comm.Message{To: comm.FederatorID, Kind: comm.KindUpdate})
	})
	if got := inner.env(EdgeID(1)).sent[0].To; got != comm.FederatorID {
		t.Fatalf("edge uplink rewritten to %d", got)
	}

	// Deliveries hand the handler a routing env, so a reply to the
	// federator routes through the tree as well.
	inner.handlers[7].OnMessage(inner.env(7), comm.Message{To: 7, Kind: comm.KindTrain})
	if len(rec.msgs) != 1 {
		t.Fatalf("delivery did not reach the wrapped handler")
	}
	rec.envs[0].Send(comm.Message{To: comm.FederatorID, Kind: comm.KindUpdate})
	replies := inner.env(7).sent
	if got := replies[len(replies)-1].To; got != wantEdge {
		t.Fatalf("reply routed to %d, want edge %d", got, wantEdge)
	}
}

func TestLazyClientHydrationLifecycle(t *testing.T) {
	built := 0
	inner := &recorder{}
	lc := &LazyClient{
		Profile: Profile{ID: 4, Speed: 0.5, Samples: 10},
		Hydrate: func(p Profile, _ any, _ func(any)) (comm.Handler, error) {
			built++
			if p.ID != 4 {
				t.Fatalf("hydrator got profile %+v", p)
			}
			return inner, nil
		},
	}
	env := &fakeEnv{id: 4}

	// Dormant shells drop everything but a training dispatch.
	lc.OnMessage(env, comm.Message{Kind: comm.KindSchedule})
	if built != 0 || lc.Hydrated() {
		t.Fatal("non-train traffic hydrated the shell")
	}
	lc.OnMessage(env, comm.Message{Kind: comm.KindTrain})
	if built != 1 || !lc.Hydrated() || lc.Hydrations() != 1 {
		t.Fatalf("first dispatch: built=%d hydrated=%v", built, lc.Hydrated())
	}
	if len(inner.msgs) != 1 || inner.msgs[0].Kind != comm.KindTrain {
		t.Fatal("hydrating dispatch not delivered to the inner client")
	}
	// Subsequent traffic reuses the hydrated client.
	lc.OnMessage(env, comm.Message{Kind: comm.KindSchedule})
	if built != 1 || len(inner.msgs) != 2 {
		t.Fatalf("re-hydrated on second message: built=%d delivered=%d", built, len(inner.msgs))
	}

	// A rejoin dehydrates; the next dispatch rebuilds from the profile.
	lc.OnRejoin(env)
	if lc.Hydrated() {
		t.Fatal("rejoin left the shell hydrated")
	}
	lc.OnRejoin(env) // idempotent on a dormant shell
	if inner.rejoins != 1 {
		t.Fatalf("the dropped client heard of %d rejoins, want the one that dropped it", inner.rejoins)
	}
	lc.OnMessage(env, comm.Message{Kind: comm.KindUpdate})
	if built != 1 {
		t.Fatal("non-train traffic hydrated a dehydrated shell")
	}
	lc.OnMessage(env, comm.Message{Kind: comm.KindTrain})
	if built != 2 || lc.Hydrations() != 2 {
		t.Fatalf("re-hydration after rejoin: built=%d hydrations=%d", built, lc.Hydrations())
	}
}

// TestLazyClientParksWithItsContinuation: a client that parks is dropped and
// its continuation is handed to the next hydration, once; a rejoin of the
// dormant shell discards the continuation without telling anyone, and each
// dehydration is counted under its cause.
func TestLazyClientParksWithItsContinuation(t *testing.T) {
	var (
		conts []any
		park  func(any)
		incs  []*recorder
	)
	lc := &LazyClient{
		Profile: Profile{ID: 4},
		Hydrate: func(_ Profile, cont any, p func(any)) (comm.Handler, error) {
			conts, park = append(conts, cont), p
			incs = append(incs, &recorder{})
			return incs[len(incs)-1], nil
		},
	}
	env := &fakeEnv{id: 4}
	train := comm.Message{Kind: comm.KindTrain}
	counts := func() [3]int {
		parked, rejoin := lc.Dehydrations()
		return [3]int{lc.Hydrations(), parked, rejoin}
	}

	lc.OnMessage(env, train)
	park("round 0")
	if lc.Hydrated() || counts() != [3]int{1, 1, 0} {
		t.Fatalf("after parking: hydrated %v, counts %v", lc.Hydrated(), counts())
	}
	lc.OnMessage(env, comm.Message{Kind: comm.KindSchedule})
	if len(incs) != 1 || len(incs[0].msgs) != 1 {
		t.Fatal("a parked shell passed non-train traffic on")
	}
	lc.OnMessage(env, train)
	if !lc.Hydrated() || len(conts) != 2 || conts[0] != nil || conts[1] != "round 0" {
		t.Fatalf("hydrations were handed %v, want nil then the parked continuation", conts)
	}

	park("round 1")
	lc.OnRejoin(env) // dormant: the crash takes the continuation
	if incs[1].rejoins != 0 || counts() != [3]int{2, 2, 0} {
		t.Fatalf("a dormant rejoin told a dropped incarnation (%d) or counted %v", incs[1].rejoins, counts())
	}
	lc.OnMessage(env, train)
	if conts[2] != nil {
		t.Fatalf("the hydration after a rejoin was handed %v, want nothing", conts[2])
	}
	lc.OnRejoin(env) // hydrated: the incarnation hears of it and is dropped
	if lc.Hydrated() || incs[2].rejoins != 1 || counts() != [3]int{3, 2, 1} {
		t.Fatalf("a hydrated rejoin: hydrated %v, heard %d, counts %v", lc.Hydrated(), incs[2].rejoins, counts())
	}
}

// EdgeIndex inverts EdgeID.
func EdgeIndex(id comm.NodeID) int { return int(-2 - id) }
