package fl

import (
	"math"
	"strings"
	"testing"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/cluster"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/sim"
	"aergia/internal/tensor"
	"aergia/internal/trace"
)

// hierTopology is a small hierarchical experiment: 12 clients behind edge
// aggregators with per-round sampling.
func hierTopology(tiers int, sample float64) Topology {
	return Topology{
		Strategy:     NewFedAvg(0),
		Arch:         archForParity,
		Dataset:      parityConfig(nil).Dataset,
		SmallImages:  true,
		Clients:      12,
		Rounds:       3,
		BatchSize:    4,
		TrainSamples: 96,
		TestSamples:  40,
		EvalEvery:    1,
		Seed:         7,
		Hier:         hier.Options{Sample: sample, Tiers: tiers},
	}
}

// runHier builds and drives a hierarchical topology on the named transport,
// returning the results and the cluster (for shell inspection).
func runHier(t *testing.T, top Topology, transport string) (*Results, *Cluster) {
	t.Helper()
	cl, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransport(transport, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	res, err := (&Deployment{Cluster: cl, Transport: tr}).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, cl
}

// hydratedSet returns the IDs of the shells that materialized.
func hydratedSet(cl *Cluster) map[comm.NodeID]bool {
	out := make(map[comm.NodeID]bool)
	for _, s := range cl.Hier.Shells {
		if s.Hydrations() > 0 {
			out[s.Profile.ID] = true
		}
	}
	return out
}

func sameIDSet(a, b map[comm.NodeID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// TestHierInertMatchesGoldens is the golden parity pin: sampling fraction
// 1.0 with 0 edge tiers normalizes to the flat build and must reproduce the
// PR 7 goldens bit-identically — sync (fedavg and aergia), async, and under
// a zero chaos plan through an explicit chaos.Transport.
func TestHierInertMatchesGoldens(t *testing.T) {
	inert := hier.Options{Sample: 1}
	for _, mk := range []struct {
		name  string
		strat func() Strategy
	}{
		{"fedavg", func() Strategy { return NewFedAvg(0) }},
		{"aergia", func() Strategy { return NewAergia(0, 1) }},
	} {
		cfg := parityConfig(mk.strat())
		cfg.Hier = inert
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesGolden(t, "hier-inert/"+mk.name, mk.name, res)

		chaosCfg := parityConfig(mk.strat())
		chaosCfg.Hier = inert
		dep, _ := buildChaosDeployment(t, chaosCfg, chaos.Plan{})
		res, err = dep.Run()
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesGolden(t, "hier-inert-chaos/"+mk.name, mk.name, res)
	}

	acfg := asyncParityConfig()
	acfg.Hier = inert
	got, err := RunAsync(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(got.FinalAccuracy); bits != 0x3fe3333333333333 {
		t.Fatalf("async accuracy bits %#x diverged from the pre-hier golden", bits)
	}
	if got.TotalTime != 661177269 {
		t.Fatalf("async total time %v diverged from the pre-hier golden", got.TotalTime)
	}
}

// TestHierBuildRejections pins the loud failures of the scale-out path.
func TestHierBuildRejections(t *testing.T) {
	top := hierTopology(2, 0.5)
	top.Async = true
	top.Strategy = nil
	top.TotalUpdates = 8
	if _, err := top.Build(); err == nil || !strings.Contains(err.Error(), "async") {
		t.Fatalf("async hier build: %v", err)
	}
	top = hierTopology(2, 0.5)
	top.DirichletAlpha = 0.5
	if _, err := top.Build(); err == nil || !strings.Contains(err.Error(), "Dirichlet") {
		t.Fatalf("dirichlet hier build: %v", err)
	}
	top = hierTopology(2, 0.5)
	top.Strategy = NewAergia(0, 1)
	if _, err := top.Build(); err == nil || !strings.Contains(err.Error(), "offloading") {
		t.Fatalf("offloading hier build: %v", err)
	}
	top = hierTopology(0, -0.2)
	if _, err := top.Build(); err == nil || !strings.Contains(err.Error(), "sampling fraction") {
		t.Fatalf("bad fraction build: %v", err)
	}
}

// TestHierTieredDeterministicAcrossRuns replays a tiered sampled run on the
// simulator: two builds of the same topology must agree bit-for-bit on
// every round stat and materialize exactly the same shells.
func TestHierTieredDeterministicAcrossRuns(t *testing.T) {
	resA, clA := runHier(t, hierTopology(3, 0.5), TransportSim)
	resB, clB := runHier(t, hierTopology(3, 0.5), TransportSim)
	assertResultsIdentical(t, "tiered replay", resA, resB)
	if !sameIDSet(hydratedSet(clA), hydratedSet(clB)) {
		t.Fatal("replayed runs hydrated different shells")
	}
	if len(clA.Hier.Edges) == 0 || len(clA.Hier.Edges) > 3 {
		t.Fatalf("%d edges for 3 tiers", len(clA.Hier.Edges))
	}
	// The root saw one child per edge, not one per client.
	for _, r := range resA.Rounds {
		if r.Completed != len(clA.Hier.Edges) {
			t.Fatalf("round %d completed %d, want %d edge aggregates",
				r.Round, r.Completed, len(clA.Hier.Edges))
		}
	}
	// Sampling at 0.5 must leave some shells dormant and hydrate others.
	hyd := len(hydratedSet(clA))
	if hyd == 0 || hyd == clA.Topology.Clients {
		t.Fatalf("hydrated %d of %d shells — sampling inert", hyd, clA.Topology.Clients)
	}
	if resA.FinalAccuracy <= 0 {
		t.Fatalf("accuracy %v — model never trained", resA.FinalAccuracy)
	}
	if resA.Bandwidth.UpdateBytes == 0 || resA.Bandwidth.DispatchBytes == 0 {
		t.Fatalf("bandwidth ledger empty: %+v", resA.Bandwidth)
	}
}

// TestHierFlatSamplingDeterministic covers the Tiers-0 path: the sampler
// narrows the federator's selection directly and unsampled shells stay
// dormant profiles.
func TestHierFlatSamplingDeterministic(t *testing.T) {
	resA, clA := runHier(t, hierTopology(0, 0.4), TransportSim)
	resB, clB := runHier(t, hierTopology(0, 0.4), TransportSim)
	assertResultsIdentical(t, "flat-sampled replay", resA, resB)
	if !sameIDSet(hydratedSet(clA), hydratedSet(clB)) {
		t.Fatal("replayed runs hydrated different shells")
	}
	if clA.Hier == nil || len(clA.Hier.Edges) != 0 {
		t.Fatal("flat sampling built edges")
	}
	hyd := len(hydratedSet(clA))
	if hyd == 0 || hyd == clA.Topology.Clients {
		t.Fatalf("hydrated %d of %d shells — sampling inert", hyd, clA.Topology.Clients)
	}
	for _, r := range resA.Rounds {
		if r.Completed == 0 || r.Completed >= clA.Topology.Clients {
			t.Fatalf("round %d completed %d of %d — cohort not applied",
				r.Round, r.Completed, clA.Topology.Clients)
		}
	}
}

// TestHierCodecRun drives the tiered path with a wire codec: client uplinks
// decode at the edge, the edge's aggregate delta re-encodes upstream.
func TestHierCodecRun(t *testing.T) {
	top := hierTopology(2, 0.5)
	top.Codec = "q8"
	resA, _ := runHier(t, top, TransportSim)
	resB, _ := runHier(t, top, TransportSim)
	assertResultsIdentical(t, "tiered q8 replay", resA, resB)
	raw, _ := runHier(t, hierTopology(2, 0.5), TransportSim)
	if resA.Bandwidth.UpdateBytes >= raw.Bandwidth.UpdateBytes {
		t.Fatalf("q8 update bytes %d not below raw %d",
			resA.Bandwidth.UpdateBytes, raw.Bandwidth.UpdateBytes)
	}
}

// TestHierSamplingAgreesAcrossTransports pins the cross-transport half of
// the sampling contract: the same seed materializes the same shells on the
// virtual-time simulator and over real TCP, because cohort membership is a
// pure hash, never a timing artifact.
func TestHierSamplingAgreesAcrossTransports(t *testing.T) {
	top := hierTopology(2, 0.6)
	top.Clients = 8
	top.TrainSamples = 32
	top.Rounds = 2
	top.Cost = cluster.CostModel{FLOPSPerSecond: 2e9}
	_, simCl := runHier(t, top, TransportSim)
	_, tcpCl := runHier(t, top, TransportTCP)
	simSet, tcpSet := hydratedSet(simCl), hydratedSet(tcpCl)
	if len(simSet) == 0 {
		t.Fatal("no shells hydrated")
	}
	if !sameIDSet(simSet, tcpSet) {
		t.Fatalf("hydrated sets diverged across transports: sim %v vs tcp %v", simSet, tcpSet)
	}
}

// TestHierHydrationUnderChaos pins the crash/rejoin contract for lazy
// shells when the crash finds the client parked: every client trains every
// round, hydrating at each dispatch and parking after each update, and the
// victim, crashed between its round-0 update and round 1, had no incarnation
// for its rejoin (delivered through the router and instrumentation proxies)
// to drop — so its counts are every other client's, and the run still
// completes every round. No hydration builds a network: a client holds one
// only while a lane trains it, so twelve clients and thirty-six hydrations
// share at most one network per lane (and one more for slack), drawn 36
// times.
func TestHierHydrationUnderChaos(t *testing.T) {
	top := hierTopology(2, 0) // everyone participates: hydration count is exact
	top.Speeds = []float64{0.25, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}

	// Baseline round duration, bounded by the straggler (client 0).
	base, _ := runHier(t, top, TransportSim)
	d0 := base.Rounds[0].Duration

	cl, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewTransport(TransportSim, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	ct := chaos.New(inner, cl.Topology.Chaos, cl.Topology.Seed)
	// Crash a fast client after its round-0 update (~d0/4 at speed 1 vs
	// 0.25), when it has parked, and rejoin it before the straggler closes
	// the round: the rejoin finds the shell dormant, and round 1's dispatch
	// hydrates it as it does every client.
	const victim = comm.NodeID(5)
	ct.ScheduleCrash(victim, d0/2, d0/4)
	ledger := newLeaseLedger()
	cl.lanes.onLease = ledger.observe
	res, err := (&Deployment{Cluster: cl, Transport: ct}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != top.Rounds {
		t.Fatalf("completed %d rounds under churn, want %d", len(res.Rounds), top.Rounds)
	}
	if built, most := len(ledger.seen), laneWidth()+1; built > most || ledger.takes != top.Clients*top.Rounds || len(ledger.faults) != 0 {
		t.Fatalf("built %d networks over %d leases (faults %v), want at most %d over %d",
			built, ledger.takes, ledger.faults, most, top.Clients*top.Rounds)
	}
	if len(cl.Hier.Shells) != top.Clients {
		t.Fatalf("%d shells activated, want all %d clients (every client is sampled)", len(cl.Hier.Shells), top.Clients)
	}
	if st := ct.Stats(); st.Crashes != 1 || st.Rejoins != 1 {
		t.Fatalf("chaos stats %+v, want the victim's one crash and rejoin", st)
	}
	for _, s := range cl.Hier.Shells {
		parked, rejoin := s.Dehydrations()
		if got := s.Hydrations(); got != top.Rounds || parked != top.Rounds || rejoin != 0 || s.Hydrated() {
			t.Fatalf("shell %d hydrated %d times, parked %d, dropped by a rejoin %d, hydrated after the run %v; want %d, %d, 0, false",
				s.Profile.ID, got, parked, rejoin, s.Hydrated(), top.Rounds, top.Rounds)
		}
	}
}

// TestHierChurnWithoutTimeoutCompletes is the regression pin for the
// tiered churn stall: with no deadline anywhere (strategy, plan, or edge),
// a crash/rejoin churn plan must not wedge a tiered sampled run. The hier
// router tees the chaos layer's client fault notices to the owning edge,
// which writes crashed cohort members off and re-enrolls rejoiners —
// without the tee an edge waits forever on a dead client and the simulator
// runs out of events. The faulted run must also replay bit-identically, and
// it runs under the protocol checker: an edge that crashes is re-enrolled
// and re-dispatches its round, also to members that delivered to it before.
func TestHierChurnWithoutTimeoutCompletes(t *testing.T) {
	run := func() (*Results, *Cluster, uint64) {
		t.Helper()
		top := hierTopology(2, 0.5)
		top.Chaos = chaos.Plan{Churn: 0.5, Rejoin: 1, Window: 200 * time.Millisecond}
		log := trace.NewLog()
		top.Trace = log
		cl, err := top.Build()
		if err != nil {
			t.Fatal(err)
		}
		models := evaluatedModels(cl)
		res, err := runOn(cl, TransportSim, nil, 0, (*Deployment).Run)
		if err != nil {
			t.Fatal(err)
		}
		crashes := 0
		for _, e := range log.Events() {
			if e.Kind == trace.NodeCrash && e.Node == comm.FederatorID {
				crashes++
			}
		}
		if crashes == 0 {
			t.Fatal("churn plan injected no crashes — the stall path went unexercised")
		}
		return res, cl, models()
	}
	resA, clA, modelsA := run()
	resB, clB, _ := run()
	if len(resA.Rounds) != clA.Topology.Rounds {
		t.Fatalf("completed %d rounds under churn, want %d", len(resA.Rounds), clA.Topology.Rounds)
	}
	assertResultsIdentical(t, "tiered churn replay", resA, resB)
	// Captured at fc70771, before a rejoining shell told the client it drops
	// (and so cancelled its lane): the fix moves no number.
	if got, want := resultHash(resA), uint64(0x334bb6c36ee19a81); got != want {
		t.Fatalf("tiered churn result hash %#x, the parent commit's is %#x", got, want)
	}
	// Captured at 314eb1f, before the round machine.
	if got, want := modelsA, uint64(0x17c247c64ebd013d); got != want {
		t.Fatalf("tiered churn evaluated-model hash %#x, the parent commit's is %#x", got, want)
	}
	if !sameIDSet(hydratedSet(clA), hydratedSet(clB)) {
		t.Fatal("replayed faulted runs hydrated different shells")
	}
}

// TestHierChurnReenrolsAPendingMember is the tiered churn run of
//
//	aergia -experiment fig1a -quick -seed 7 -tiers 2 \
//	  -chaos 'churn=0.5,rejoin=1,window=1s,drop=0.02,delay=5ms,round_timeout=30s,quorum=0.5'
//
// at its largest CPU variance. An edge crashes and rejoins mid-round, which
// wipes its liveness view; the root re-enrols it, it samples a cohort member
// that went down meanwhile and counts it as pending, and so it sees that
// member rejoin while still waiting on it. No other run in the suite reaches
// that re-enrol.
func TestHierChurnReenrolsAPendingMember(t *testing.T) {
	plan, err := chaos.ParseSpec("churn=0.5,rejoin=1,window=1s,drop=0.02,delay=5ms,round_timeout=30s,quorum=0.5")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		clients int
		want    uint64 // captured at b5ebc35, before the cohort tracker, at GOMAXPROCS 1, 2, 8
		models  uint64 // captured at 314eb1f, before the round machine, at GOMAXPROCS 1, 2, 8
	}{{3, 0xb6a3d8868f7a4fdc, 0x40fc031178632ed6}, {5, 0x6d74d0bdfe6ce737, 0x2454fbc923575312}} {
		top := Topology{
			Strategy:     NewFedAvg(0),
			Arch:         nn.ArchMNISTSmall,
			Dataset:      dataset.MNIST,
			SmallImages:  true,
			Clients:      tc.clients,
			Rounds:       2,
			LocalEpochs:  2,
			BatchSize:    8,
			TrainSamples: 40 * tc.clients,
			TestSamples:  100,
			NoiseStd:     1.4,
			Speeds:       cluster.SpeedsWithVariance(tc.clients, 0.5, 0.16, tensor.NewRNG(7*1000+uint64(tc.clients))),
			EvalEvery:    100,
			Seed:         7,
			Chaos:        plan,
			Hier:         hier.Options{Tiers: 2},
		}
		for _, procs := range []int{1, 2, 8} {
			atWidth(procs, func() {
				cl, err := top.Build()
				if err != nil {
					t.Fatal(err)
				}
				models := evaluatedModels(cl)
				res, err := runOn(cl, TransportSim, sim.UniformLink(10*time.Millisecond, 1e6), 0, (*Deployment).Run)
				if err != nil {
					t.Fatal(err)
				}
				if got := resultHash(res); got != tc.want {
					t.Fatalf("%d clients at GOMAXPROCS %d: result hash %#x, the parent commit's is %#x",
						tc.clients, procs, got, tc.want)
				}
				if got := models(); got != tc.models {
					t.Fatalf("%d clients at GOMAXPROCS %d: evaluated-model hash %#x, the parent commit's is %#x",
						tc.clients, procs, got, tc.models)
				}
			})
		}
	}
}

// rejoinProbe stands between a lazy shell and the client it hydrated, and
// counts the unfinished steps on the client's compute lane on both sides of
// a rejoin.
type rejoinProbe struct {
	*Client
	rejoined    bool
	held, after int
	keptNet     bool // the dropped client's round still holds its lease
}

func (p *rejoinProbe) OnRejoin(env comm.Env) {
	l := p.Client.lane
	unfinished := func() int {
		if l == nil {
			return 0
		}
		laneSched.mu.Lock()
		defer laneSched.mu.Unlock()
		return len(l.queue)
	}
	p.held = unfinished()
	lease := p.Client.lease
	p.Client.OnRejoin(env)
	p.rejoined, p.after = true, unfinished()
	p.keptNet = lease != nil && lease.net.Load() != nil
}

// TestHierRejoinStopsTheDroppedClientsLane: a hydrated shell that crashes in
// the middle of its round and rejoins dormant must tell the incarnation it
// drops, or that client's lane goes on training a round nobody will read
// until the run's final drain. No step of it may be left once the rejoin
// has been handled, the run's numbers must not notice, and they are the
// parent commit's (where the lane was left running) at every width. The
// crashed incarnation is the one a rejoin drops, exactly once; the rejoined
// client starts dormant, and from its re-enrolment in round 0 it hydrates
// once a round and parks after each update, never hearing of the rejoin.
func TestHierRejoinStopsTheDroppedClientsLane(t *testing.T) {
	const victim = comm.NodeID(5)
	top := hierTopology(2, 0)
	// Client 0 holds the round open; the victim would need half of it.
	top.Speeds = []float64{0.25, 1, 1, 1, 1, 0.5, 1, 1, 1, 1, 1, 1}
	base, _ := runHier(t, top, TransportSim)
	d0 := base.Rounds[0].Duration

	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			cl, err := top.Build()
			if err != nil {
				t.Fatal(err)
			}
			ledger := newLeaseLedger()
			cl.lanes.onLease = ledger.observe
			var probes []*rejoinProbe
			shell := cl.Hier.Shell(victim)
			hydrate := shell.Hydrate
			shell.Hydrate = func(p hier.Profile, cont any, park func(any)) (comm.Handler, error) {
				h, err := hydrate(p, cont, park)
				if err != nil {
					return nil, err
				}
				probes = append(probes, &rejoinProbe{Client: h.(*Client)})
				return probes[len(probes)-1], nil
			}
			inner, err := NewTransport(TransportSim, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer inner.Close()
			ct := chaos.New(inner, cl.Topology.Chaos, cl.Topology.Seed)
			// Down at a quarter of the round, back at three eighths: the
			// victim's own round would have run to one half.
			ct.ScheduleCrash(victim, d0/4, d0/8)
			res, err := (&Deployment{Cluster: cl, Transport: ct}).Run()
			if err != nil {
				t.Fatal(err)
			}
			parked, rejoin := shell.Dehydrations()
			if len(probes) != top.Rounds+1 || shell.Hydrations() != len(probes) || parked != top.Rounds || rejoin != 1 || shell.Hydrated() {
				t.Fatalf("victim hydrated %d times (%d probes), parked %d, dropped by a rejoin %d, hydrated after the run %v; want the crashed incarnation dropped once, then one parked incarnation a round",
					shell.Hydrations(), len(probes), parked, rejoin, shell.Hydrated())
			}
			for i, p := range probes[1:] {
				if p.rejoined {
					t.Fatalf("incarnation %d, hydrated after the rejoin, heard of it", i+1)
				}
			}
			first := probes[0]
			if !first.rejoined {
				t.Fatal("the shell dropped its hydrated client without telling it of the rejoin")
			}
			if first.after != 0 {
				t.Fatalf("%d steps left on the dropped client's lane after the rejoin", first.after)
			}
			if first.keptNet {
				t.Fatal("the dropped client took its network with it instead of returning it to the free list")
			}
			// A client holds a network only while a lane trains it, the
			// crashed incarnation's round included.
			if built, most := len(ledger.seen), procs+1; built > most || len(ledger.held) != 0 {
				t.Fatalf("built %d networks for %d clients (at most %d), %d still held after the run",
					built, top.Clients, most, len(ledger.held))
			}
			// Without a second processor nothing runs before its join, so
			// the crashed round is still on the lane, whole, when the
			// rejoin comes: the case the run's final drain used to catch.
			if procs == 1 && first.held == 0 {
				t.Fatal("the crash did not land mid-round: the lane was already empty at the rejoin")
			}
			// Captured at fc70771, at GOMAXPROCS 1, 2 and 8.
			if got, want := resultHash(res), uint64(0xa35b04c607319d74); got != want {
				t.Fatalf("GOMAXPROCS %d: result hash %#x, the parent commit's is %#x", procs, got, want)
			}
		})
	}
}

// TestHierEdgesReleaseUpdatesAfterFlush: once an edge has sent its
// aggregate nothing reads the cohort's updates again, so it must not keep
// them reachable — cutting the slice to length zero at the next dispatch
// left every weight snapshot in the backing array (31.9 MB of hier_scale's
// 76 MB post-run heap). After a run, no edge's round holds an update.
func TestHierEdgesReleaseUpdatesAfterFlush(t *testing.T) {
	res, cl := runHier(t, hierTopology(3, 0.5), TransportSim)
	if res.FinalAccuracy <= 0 {
		t.Fatalf("accuracy %v — model never trained", res.FinalAccuracy)
	}
	seen := 0
	for _, e := range cl.Hier.Edges {
		if len(e.updates) != 0 || len(e.arrived) != 0 {
			t.Errorf("edge %d: %d updates still held after the run", e.ID, len(e.updates))
		}
		seen += cap(e.arrived)
	}
	if seen == 0 {
		t.Fatal("no edge ever took an update — the check saw nothing")
	}
}

// inbox is a node that keeps what reaches it.
type inbox []comm.Message

func (b *inbox) OnMessage(_ comm.Env, msg comm.Message) { *b = append(*b, msg) }

// count reports how many of the messages are of kind k.
func (b inbox) count(k comm.Kind) int {
	n := 0
	for _, m := range b {
		if m.Kind == k {
			n++
		}
	}
	return n
}

// TestHierEdgeRoundRules pins the rules in which an edge's round differs
// from the root's, on one edge of a tiered run on the simulator: a root that
// dispatches round 0 at 1 ms and relays liveness notices as the tier router
// does, and three cohort members that keep their dispatches and send what a
// case scripts.
//   - A round whose every sampled member is down or written off, with
//     nothing arrived, stays open without a timeout, and the first rejoin is
//     re-dispatched into it. The root closes such a round at once.
//   - A timeout with nothing arrived closes the round and sends nothing
//     upstream; an update that arrives later is refused.
//   - The upstream update carries the arrivals' summed samples, their
//     sample-weighted mean step count, at least 1, and their sample-weighted
//     mean model.
//   - The edge tier of aergia_hier_update_bytes_total counts every update
//     the round owes, decoded or not (an undecodable one crossed the link
//     all the same), and no refused one.
func TestHierEdgeRoundRules(t *testing.T) {
	const ms = time.Millisecond
	edge := hier.EdgeID(0)
	type tier struct {
		notice func(at time.Duration, node comm.NodeID, down bool)
		update func(at time.Duration, node comm.NodeID, samples, steps int, value float64)
		// undecodable sends an update encoded on this codec-free run.
		undecodable func(at time.Duration, node comm.NodeID)
	}
	edgeBytes := obs.Default.CounterVec("aergia_hier_update_bytes_total", "", "tier").With("edge")
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		script  func(s tier)
		trains  [3]int // KindTrain deliveries per member
		uplinks int    // updates the edge counts, one byte each
		want    *Update
	}{
		{"down at the open, first rejoin dispatched", 0, func(s tier) {
			for id := comm.NodeID(0); id < 3; id++ {
				s.notice(0, id, true)
			}
			s.notice(5*ms, 2, false)
			s.update(6*ms, 2, 4, 3, 4)
		}, [3]int{0, 0, 1}, 1, &Update{NumSamples: 4, Steps: 3}},
		{"written off mid-round, first rejoin re-dispatched", 0, func(s tier) {
			for id := comm.NodeID(0); id < 3; id++ {
				s.notice(2*ms, id, true)
			}
			s.notice(5*ms, 1, false)
			s.update(6*ms, 1, 4, 3, 4)
		}, [3]int{1, 2, 1}, 1, &Update{NumSamples: 4, Steps: 3}},
		{"timeout with nothing arrived", 10 * ms, func(s tier) {
			for id := comm.NodeID(0); id < 3; id++ {
				s.update(15*ms, id, 4, 3, 1)
			}
		}, [3]int{1, 1, 1}, 0, nil},
		{"sample-weighted aggregate", 0, func(s tier) {
			s.update(2*ms, 1, 1, 10, 1)
			s.update(3*ms, 0, 3, 2, 5)
			s.notice(4*ms, 2, true)
		}, [3]int{1, 1, 1}, 2, &Update{NumSamples: 4, Steps: 4}},
		{"at least one step", 0, func(s tier) {
			for id := comm.NodeID(0); id < 3; id++ {
				s.update(2*ms, id, 2, 0, 4)
			}
		}, [3]int{1, 1, 1}, 3, &Update{NumSamples: 6, Steps: 1}},
		{"undecodable update counted, then refused", 0, func(s tier) {
			s.undecodable(2*ms, 0)
			s.update(3*ms, 1, 2, 3, 4)
			s.update(3*ms, 2, 2, 3, 4)
			s.update(3*ms, 2, 2, 3, 9)
			s.notice(4*ms, 0, true)
		}, [3]int{1, 1, 1}, 3, &Update{NumSamples: 4, Steps: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := sim.NewNetwork(sim.NewKernel(), nil)
			e := &EdgeAggregator{ID: edge, Cohort: []comm.NodeID{0, 1, 2}, Timeout: tc.timeout, BW: &Bandwidth{}}
			e.Init()
			var root inbox
			var members [3]inbox
			tr.Register(edge, e)
			tr.Register(comm.FederatorID, &root)
			for i := range members {
				tr.Register(comm.NodeID(i), &members[i])
			}
			if err := tr.Seal(); err != nil {
				t.Fatal(err)
			}
			at := func(d time.Duration, node comm.NodeID, fn func(comm.Env)) {
				tr.Invoke(comm.FederatorID, func(env comm.Env) {
					env.After(d, func() { tr.Invoke(node, fn) })
				})
			}
			send := func(d time.Duration, node comm.NodeID, p UpdatePayload) {
				p.Update.Client = node
				at(d, node, func(env comm.Env) {
					env.Send(comm.Message{To: edge, Kind: comm.KindUpdate, Size: 1, Payload: p})
				})
			}
			tc.script(tier{
				notice: func(d time.Duration, node comm.NodeID, down bool) {
					at(d, comm.FederatorID, func(env comm.Env) {
						env.Send(comm.Message{To: edge, Kind: comm.KindFault, Payload: comm.FaultPayload{Node: node, Down: down}})
					})
				},
				update: func(d time.Duration, node comm.NodeID, samples, steps int, value float64) {
					send(d, node, UpdatePayload{Update: Update{NumSamples: samples, Steps: steps,
						Weights: nn.Weights{Feature: []float64{value, value}, Classifier: []float64{value}}}})
				},
				undecodable: func(d time.Duration, node comm.NodeID) {
					send(d, node, UpdatePayload{Encoded: EncodedWeights{Codec: "q8"}})
				},
			})
			before := edgeBytes.Value()
			at(ms, comm.FederatorID, func(env comm.Env) {
				global := nn.Weights{Feature: []float64{0, 0}, Classifier: []float64{0}}
				env.Send(comm.Message{To: edge, Kind: comm.KindTrain, Payload: TrainPayload{Global: global}})
			})
			if err := tr.Drive(nil); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			for i, want := range tc.trains {
				if got := members[i].count(comm.KindTrain); got != want {
					t.Errorf("member %d got %d dispatches, want %d", i, got, want)
				}
			}
			if got := edgeBytes.Value() - before; got != float64(tc.uplinks) {
				t.Errorf("the edge counted %v uplink bytes, want %d", got, tc.uplinks)
			}
			if tc.want == nil {
				if len(root) != 0 {
					t.Fatalf("the edge sent %d messages upstream, want none", len(root))
				}
				return
			}
			if len(root) != 1 || root[0].Kind != comm.KindUpdate {
				t.Fatalf("the edge sent %d messages upstream, want one update", len(root))
			}
			u := root[0].Payload.(UpdatePayload).Update
			if u.Client != edge || u.NumSamples != tc.want.NumSamples || u.Steps != tc.want.Steps {
				t.Fatalf("upstream update from %d with %d samples and %d steps, want %d, %d and %d",
					u.Client, u.NumSamples, u.Steps, edge, tc.want.NumSamples, tc.want.Steps)
			}
			for _, v := range append(u.Weights.Feature, u.Weights.Classifier...) {
				if v != 4 {
					t.Fatalf("upstream model %v, want every value 4", u.Weights)
				}
			}
		})
	}
}
