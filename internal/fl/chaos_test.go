package fl

import (
	"math"
	"testing"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/cluster"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/trace"
)

// buildChaosDeployment materializes cfg and binds it to a chaos.Transport
// over the simulator, returning both so tests can pin explicit fates.
func buildChaosDeployment(t *testing.T, cfg Config, plan chaos.Plan) (*Deployment, *chaos.Transport) {
	t.Helper()
	cfg.Chaos = plan
	cl, err := cfg.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewTransport(TransportSim, cfg.Link)
	if err != nil {
		t.Fatal(err)
	}
	ct := chaos.New(inner, cl.Topology.Chaos, cl.Topology.Seed)
	return &Deployment{Cluster: cl, Transport: ct}, ct
}

// TestChaosZeroPlanWrappedMatchesGolden pins the wrapper's transparency: a
// run forced through a chaos.Transport carrying the zero plan must
// reproduce the PR 3 topology-parity goldens bit-identically — same round
// durations, same Float64bits of every accuracy.
func TestChaosZeroPlanWrappedMatchesGolden(t *testing.T) {
	for _, mk := range []struct {
		name  string
		strat func() Strategy
	}{
		{"fedavg", func() Strategy { return NewFedAvg(0) }},
		{"aergia", func() Strategy { return NewAergia(0, 1) }},
	} {
		dep, ct := buildChaosDeployment(t, parityConfig(mk.strat()), chaos.Plan{})
		res, err := dep.Run()
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesGolden(t, "chaos-wrapped/"+mk.name, mk.name, res)
		if s := ct.Stats(); s != (chaos.Stats{}) {
			t.Fatalf("zero plan injected faults: %+v", s)
		}
	}
}

// churnPlan exercises every fault type at once: crashes with rejoins,
// lossy and laggy links, compute spikes, and the quorum/round-timeout
// hardening that keeps lossy rounds finite.
func churnPlan() chaos.Plan {
	return chaos.Plan{
		Churn:        0.5,
		Rejoin:       1,
		Window:       1500 * time.Millisecond,
		Down:         400 * time.Millisecond,
		Drop:         0.05,
		Delay:        5 * time.Millisecond,
		Spike:        2,
		SpikeProb:    0.3,
		SpikeLen:     300 * time.Millisecond,
		Quorum:       0.4,
		RoundTimeout: 4 * time.Second,
		Seed:         11,
	}
}

// TestChaosChurnReplayDeterministic replays a fully loaded fault plan on
// the simulator and requires the two trajectories to agree bit-for-bit:
// identical round timings and Float64bits-identical accuracies.
func TestChaosChurnReplayDeterministic(t *testing.T) {
	run := func() *Results {
		cfg := parityConfig(NewAergia(0, 1))
		cfg.Rounds = 3
		cfg.Chaos = churnPlan()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	b := run()
	assertResultsIdentical(t, "churn replay", a, b)
	if len(a.Rounds) != 3 {
		t.Fatalf("churn run completed %d rounds, want 3", len(a.Rounds))
	}
	// A distinct plan seed must perturb the trajectory — otherwise the
	// faults were never injected.
	cfg := parityConfig(NewAergia(0, 1))
	cfg.Rounds = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diverged := len(res.Rounds) != len(a.Rounds)
	for i := 0; !diverged && i < len(a.Rounds); i++ {
		if a.Rounds[i].Duration != res.Rounds[i].Duration ||
			a.Rounds[i].Completed != res.Rounds[i].Completed {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("faulted and fault-free runs produced identical round stats")
	}
}

// fixedSpeedConfig is parityConfig with deterministic per-round timing: a
// hopeless straggler (client 0) among fast peers and no jitter.
func fixedSpeedConfig(strat Strategy) Config {
	cfg := parityConfig(strat)
	cfg.Speeds = []float64{0.1, 0.9, 1.0, 0.8, 0.95}
	cfg.SpeedJitter = 0
	return cfg
}

// TestChaosCrashRejoinRoundMembership pins the crash/rejoin contract on
// virtual time: a client crashed mid-round is written off for that round
// (the round completes without it), and after its rejoin it participates
// in the next round again.
func TestChaosCrashRejoinRoundMembership(t *testing.T) {
	// Baseline round duration, bounded by the straggler.
	base, err := Run(fixedSpeedConfig(NewFedAvg(0)))
	if err != nil {
		t.Fatal(err)
	}
	d0 := base.Rounds[0].Duration

	cfg := fixedSpeedConfig(NewFedAvg(0))
	cfg.Rounds = 3
	dep, ct := buildChaosDeployment(t, cfg, chaos.Plan{})
	// Crash the straggler a quarter into round 0 (the fast clients, ~d0/8,
	// have already delivered — the crash notification is what unblocks the
	// round) with a short downtime. Round 1 starts at ~d0/4 while the node
	// is still down, so it sits that round out too; by round 2 it has
	// rejoined and trains again.
	ct.ScheduleCrash(0, d0/4, d0/16)
	res, err := dep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].Completed != 4 {
		t.Fatalf("round 0 aggregated %d updates, want 4 (crashed straggler dropped)", res.Rounds[0].Completed)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.Completed != 5 {
		t.Fatalf("final round aggregated %d updates, want 5 (rejoined straggler back)", last.Completed)
	}
	// The straggler bounds a full round again, so the final round is an
	// order of magnitude longer than the crash-shortened round 0.
	if last.Duration < res.Rounds[0].Duration {
		t.Fatalf("final round %v shorter than crashed round %v", last.Duration, res.Rounds[0].Duration)
	}
	s := ct.Stats()
	if s.Crashes != 1 || s.Rejoins != 1 {
		t.Fatalf("stats %+v, want 1 crash and 1 rejoin", s)
	}
}

// TestChaosDeadlineDropAndCrashCountedOnce is the regression for the
// federator's deadline-drop path composed with a crash in the same round:
// a client that is both late (past the deadline) and dead (crashed) must
// be dropped exactly once — every round aggregates the four live fast
// clients, no round double-subtracts the straggler, and the round count
// stays exact.
func TestChaosDeadlineDropAndCrashCountedOnce(t *testing.T) {
	base, err := Run(fixedSpeedConfig(NewFedAvg(0)))
	if err != nil {
		t.Fatal(err)
	}
	d0 := base.Rounds[0].Duration

	// Deadline at half the straggler-bound round: the fast clients (speeds
	// >= 0.8 vs 0.1) deliver long before it, the straggler never does.
	cfg := fixedSpeedConfig(NewDeadlineFedAvg(0, d0/2))
	cfg.Rounds = 3
	dep, ct := buildChaosDeployment(t, cfg, chaos.Plan{})
	// The straggler dies shortly after round 0's deadline already dropped
	// it, and stays dead: every later round composes "late" (deadline
	// path) with "dead" (fault path) for the same client.
	ct.ScheduleCrash(0, d0/2+d0/16, 0)
	res, err := dep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("%d rounds recorded, want %d (a double-finalize would shift this)", len(res.Rounds), cfg.Rounds)
	}
	for _, r := range res.Rounds {
		if r.Completed != 4 {
			t.Fatalf("round %d aggregated %d updates, want 4: the late+dead straggler must be counted once",
				r.Round, r.Completed)
		}
	}
	if s := ct.Stats(); s.Crashes != 1 {
		t.Fatalf("stats %+v, want exactly 1 crash", s)
	}
}

// TestChaosBlackoutRoundCloses: without any deadline, a round whose every
// selected client is down when it opens can wait on nothing — no update and
// no crash notice will come — so the federator closes it empty at once, and
// the rounds that select a live or rejoining client run as usual.
func TestChaosBlackoutRoundCloses(t *testing.T) {
	base, err := Run(fixedSpeedConfig(NewFedAvg(0)))
	if err != nil {
		t.Fatal(err)
	}
	d0 := base.Rounds[0].Duration
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			cfg := fixedSpeedConfig(NewFedAvg(2))
			cfg.Rounds = 8
			dep, ct := buildChaosDeployment(t, cfg, chaos.Plan{})
			// Four of the five go dark early in round 0 and come back one
			// round apart, so some rounds select only dark clients and others
			// catch a rejoin.
			for i := 0; i < 4; i++ {
				ct.ScheduleCrash(comm.NodeID(i), d0/100, time.Duration(i+1)*d0)
			}
			models := evaluatedModels(dep.Cluster)
			res, err := dep.Run()
			if err != nil {
				t.Fatal(err)
			}
			dark := 0
			for _, r := range res.Rounds {
				if r.Completed == 0 && r.Duration == 0 {
					dark++
				}
			}
			if len(res.Rounds) != cfg.Rounds || dark == 0 {
				t.Fatalf("%d rounds, %d of them opened dark and closed empty: %+v", len(res.Rounds), dark, res.Rounds)
			}
			// Captured at b5ebc35, before the cohort tracker, at GOMAXPROCS 1, 2, 8.
			if got, want := resultHash(res), uint64(0x1537d4c36741cbe6); got != want {
				t.Fatalf("GOMAXPROCS %d: result hash %#x, the parent commit's is %#x", procs, got, want)
			}
			// Captured at 314eb1f, before the round machine, at GOMAXPROCS 1, 2, 8.
			if got, want := models(), uint64(0x845963754687005a); got != want {
				t.Fatalf("GOMAXPROCS %d: evaluated-model hash %#x, the parent commit's is %#x", procs, got, want)
			}
		})
	}
}

// TestChaosQuorumHoldsRoundOpen pins the quorum contract: a deadline that
// fires below quorum holds the round open (within its grace period) until
// the quorum-th update arrives, instead of aggregating a near-empty round.
func TestChaosQuorumHoldsRoundOpen(t *testing.T) {
	speeds := []float64{0.1, 0.3, 0.6, 0.9, 1.0}
	baseCfg := parityConfig(NewFedAvg(0))
	baseCfg.Speeds = speeds
	baseCfg.SpeedJitter = 0
	base, err := Run(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	d0 := base.Rounds[0].Duration // bounded by the 0.1-speed straggler

	// Completion times scale with 1/speed: clients finish near d0/10,
	// d0/9, d0/6, d0/3.3, and d0. A deadline at 0.13·d0 sees only the two
	// fastest; with a 60% quorum (3 of 5) the round must stay open past
	// the deadline and cut when the third update (~d0/6) lands — well
	// inside the one-deadline grace period ending at 0.26·d0.
	cfg := parityConfig(NewDeadlineFedAvg(0, d0*13/100))
	cfg.Speeds = speeds
	cfg.SpeedJitter = 0
	cfg.Chaos = chaos.Plan{Quorum: 0.6}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		if r.Completed != 3 {
			t.Fatalf("round %d aggregated %d updates, want quorum 3", r.Round, r.Completed)
		}
		if r.Duration <= d0*13/100 {
			t.Fatalf("round %d cut at %v, before the deadline %v — quorum did not hold it open",
				r.Round, r.Duration, d0*13/100)
		}
	}
}

// TestChaosOffloadReassignment crashes the helper of a scheduled offload
// pair mid-round: the federator must repoint the pair at a live strong
// client and the round must still aggregate every live update, features
// recombined.
func TestChaosOffloadReassignment(t *testing.T) {
	// Traced baseline: find round 0's helper and the window between the
	// schedule landing and the helper returning features. Crashing the
	// helper inside that window forces a reassignment.
	baseCfg := fixedSpeedConfig(NewAergia(0, 1))
	baseLog := trace.NewLog()
	baseCfg.Trace = baseLog
	base, err := Run(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Rounds[0].Offloads == 0 {
		t.Fatal("baseline scheduled no offloads; the reassignment test needs one")
	}
	var strong comm.NodeID
	var scheduleAt, helperDoneAt time.Duration
	for _, e := range baseLog.Events() {
		if e.Round != 0 {
			continue
		}
		switch e.Kind {
		case trace.HelperStart:
			strong = e.Node
			scheduleAt = e.Time
		case trace.HelperDone:
			helperDoneAt = e.Time
		}
	}
	if helperDoneAt <= scheduleAt {
		t.Fatalf("bad baseline window [%v, %v]", scheduleAt, helperDoneAt)
	}

	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() { checkOffloadReassignment(t, procs, strong, (scheduleAt+helperDoneAt)/2) })
	}
}

func checkOffloadReassignment(t *testing.T, procs int, strong comm.NodeID, crashAt time.Duration) {
	cfg := fixedSpeedConfig(NewAergia(0, 1))
	log := trace.NewLog()
	cfg.Trace = log
	dep, ct := buildChaosDeployment(t, cfg, chaos.Plan{})
	ct.ScheduleCrash(strong, crashAt, 0)
	models := evaluatedModels(dep.Cluster)
	res, err := dep.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Captured at b5ebc35, before the cohort tracker, at GOMAXPROCS 1, 2, 8.
	if got, want := resultHash(res), uint64(0x1d3b830167cd8eb5); got != want {
		t.Fatalf("GOMAXPROCS %d: result hash %#x, the parent commit's is %#x", procs, got, want)
	}
	// Captured at 314eb1f, before the round machine, at GOMAXPROCS 1, 2, 8.
	if got, want := models(), uint64(0xb778836404b6baf8); got != want {
		t.Fatalf("GOMAXPROCS %d: evaluated-model hash %#x, the parent commit's is %#x", procs, got, want)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("%d rounds, want 2", len(res.Rounds))
	}
	// The helper delivered its own full update long before the crash, so
	// round 0 still aggregates all 5 (the weak client's partial update
	// recombined with the replacement helper's features); from round 1 on
	// the dead helper is gone and the round runs with the 4 survivors.
	if r := res.Rounds[0]; r.Completed != 5 {
		t.Fatalf("round 0 aggregated %d updates, want 5", r.Completed)
	}
	if r := res.Rounds[1]; r.Completed != 4 {
		t.Fatalf("round 1 aggregated %d updates, want 4", r.Completed)
	}
	if res.FinalAccuracy < 0 {
		t.Fatal("no final accuracy")
	}
	reassigned := false
	helpersDone := 0
	for _, e := range log.Events() {
		if e.Round != 0 {
			continue
		}
		switch e.Kind {
		case trace.OffloadReassigned:
			reassigned = true
		case trace.HelperDone:
			helpersDone++
		}
	}
	if !reassigned {
		t.Fatal("crashing the helper mid-offload did not trigger a reassignment")
	}
	if helpersDone != 1 {
		t.Fatalf("%d helper completions in round 0, want exactly 1 (the replacement)", helpersDone)
	}
}

// TestChaosAsyncCrashRejoin drives the async engine through a crash and
// rejoin: the update budget must still be exhausted (the loop self-heals
// through re-dispatch on rejoin) and the run must stay deterministic on
// replay.
func TestChaosAsyncCrashRejoin(t *testing.T) {
	run := func() *AsyncResults {
		cfg := asyncParityConfig()
		cfg.TotalUpdates = 12
		cl, err := cfg.Topology().Build()
		if err != nil {
			t.Fatal(err)
		}
		inner, err := NewTransport(TransportSim, nil)
		if err != nil {
			t.Fatal(err)
		}
		ct := chaos.New(inner, chaos.Plan{}, cl.Topology.Seed)
		ct.ScheduleCrash(1, 50*time.Millisecond, 100*time.Millisecond)
		res, err := (&Deployment{Cluster: cl, Transport: ct}).RunAsync()
		if err != nil {
			t.Fatal(err)
		}
		if s := ct.Stats(); s.Crashes != 1 || s.Rejoins != 1 {
			t.Fatalf("stats %+v, want 1 crash and 1 rejoin", s)
		}
		return res
	}
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			a := run()
			if a.TotalUpdates != 12 {
				t.Fatalf("absorbed %d updates, want 12", a.TotalUpdates)
			}
			b := run()
			if math.Float64bits(a.FinalAccuracy) != math.Float64bits(b.FinalAccuracy) ||
				a.TotalTime != b.TotalTime || a.TotalUpdates != b.TotalUpdates {
				t.Fatalf("async churn replay diverged: %+v vs %+v", a, b)
			}
			// Captured at b5ebc35, before the cohort tracker, at GOMAXPROCS 1, 2, 8.
			if got, want := asyncResultHash(a), uint64(0xdcff3d11fb19d7d0); got != want {
				t.Fatalf("GOMAXPROCS %d: result hash %#x, the parent commit's is %#x", procs, got, want)
			}
		})
	}
}

// TestChaosAsyncLossyLinksRedispatch pins the async liveness fallback: on
// a lossy link a dropped dispatch or update would strand that client's
// update chain forever; with the plan's RoundTimeout as the redispatch
// watchdog the budget must still be exhausted, deterministically.
func TestChaosAsyncLossyLinksRedispatch(t *testing.T) {
	run := func() *AsyncResults {
		cfg := asyncParityConfig()
		cfg.TotalUpdates = 12
		cfg.Chaos = chaos.Plan{
			Drop:         0.15,
			RoundTimeout: 2 * time.Second, // well above the slowest client's update time
			Seed:         5,
		}
		res, err := RunAsync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.TotalUpdates != 12 {
		t.Fatalf("absorbed %d updates, want 12 despite drops", a.TotalUpdates)
	}
	b := run()
	if math.Float64bits(a.FinalAccuracy) != math.Float64bits(b.FinalAccuracy) || a.TotalTime != b.TotalTime {
		t.Fatalf("lossy async replay diverged: %+v vs %+v", a, b)
	}
}

// TestChaosOverTCP runs a churn plan over the real transport: every client
// crashes once and rejoins, and the run must still complete all rounds.
// Wall-clock timings vary, so only structure is asserted (DESIGN.md §7:
// tcp is best-effort).
func TestChaosOverTCP(t *testing.T) {
	cfg := Config{
		Strategy:     NewFedAvg(0),
		Arch:         archForParity,
		Dataset:      dataset.MNIST,
		SmallImages:  true,
		Clients:      4,
		Rounds:       3,
		LocalEpochs:  2,
		BatchSize:    8,
		LR:           0.05,
		TrainSamples: 128,
		TestSamples:  50,
		Speeds:       []float64{0.5, 0.9, 1.0, 0.95},
		Cost:         cluster.CostModel{FLOPSPerSecond: 2e9},
		Seed:         5,
		Transport:    TransportTCP,
		Chaos: chaos.Plan{
			Churn:  1,
			Rejoin: 1,
			Window: 300 * time.Millisecond,
			Down:   200 * time.Millisecond,
			Seed:   3,
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("%d rounds, want %d", len(res.Rounds), cfg.Rounds)
	}
	if res.FinalAccuracy < 0 {
		t.Fatal("no accuracy evaluated")
	}
}
