package fl

import (
	"testing"
	"time"

	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/hier"
)

// continuationConfig is TestLeaseKeepsPerClientStateAcrossWidths's run: a
// tiered, sampled run whose clients carry a continuation between rounds, a
// jitter stream and topk residuals, and are sampled again.
func continuationConfig() Config {
	cfg := testConfig(NewFedAvg(0))
	cfg.Clients, cfg.TrainSamples, cfg.Rounds = 16, 256, 6
	cfg.Speeds = nil
	cfg.SpeedJitter = 0.3
	cfg.Codec = codec.TopK
	cfg.Hier = hier.Options{Tiers: 2, Sample: 0.5}
	return cfg
}

// goldenContinuation is continuationConfig's result hash, captured at
// 1f74e52, where every client owned its network for life, and held since
// (TestLeaseKeepsPerClientStateAcrossWidths).
const goldenContinuation = 0xd7afb1ee1995a311

// sampledIn reports whether client id is in round r's cohort of its edge.
func sampledIn(cl *Cluster, r int, id comm.NodeID) bool {
	for _, e := range cl.Hier.Edges {
		for _, m := range e.Sampler.Cohort(r, e.Cohort) {
			if m == id {
				return true
			}
		}
	}
	return false
}

// TestDehydratedShellLosesItsContinuationInACrash: a crash wipes a client's
// state, the continuation a parked client carries included. The victim is
// sampled in a round, not in the next, and again in the one after; it
// crashes and rejoins in the round it sits out, when its shell is dormant,
// and its next round must start from a fresh jitter stream and empty
// residuals, as a client crashed hydrated does. The run replays to the parent
// commit's hash, where the client stayed hydrated between rounds and its
// rejoin re-seeded it, at GOMAXPROCS 1, 2 and 8.
func TestDehydratedShellLosesItsContinuationInACrash(t *testing.T) {
	cfg := continuationConfig()
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := cfg.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	victim, gap := comm.NodeID(-1), 0
	for r := 0; r+2 < cfg.Rounds && victim < 0; r++ {
		for id := range comm.NodeID(cfg.Clients) {
			if sampledIn(probe, r, id) && !sampledIn(probe, r+1, id) && sampledIn(probe, r+2, id) {
				victim, gap = id, r+1
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no client sits out a round between two sampled ones")
	}
	var start time.Duration
	for _, rs := range clean.Rounds[:gap] {
		start += rs.Duration
	}
	d := clean.Rounds[gap].Duration
	sampled := 0
	for r := range cfg.Rounds {
		if sampledIn(probe, r, victim) {
			sampled++
		}
	}
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			dep, ct := buildChaosDeployment(t, cfg, cfg.Chaos)
			// Down a quarter into the round the victim sits out, back at
			// three quarters.
			ct.ScheduleCrash(victim, start+d/4, d/2)
			res, err := dep.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st := ct.Stats(); st.Crashes != 1 || st.Rejoins != 1 {
				t.Fatalf("GOMAXPROCS %d: chaos stats %+v, want the victim's one crash and rejoin", procs, st)
			}
			// The crash found the shell parked: its rejoin dropped no
			// incarnation, and every sampled round hydrated and parked one.
			shell := dep.Cluster.Hier.Shells[victim]
			if parked, rejoin := shell.Dehydrations(); shell.Hydrations() != sampled || parked != sampled || rejoin != 0 {
				t.Fatalf("GOMAXPROCS %d: victim hydrated %d times, parked %d, dropped by a rejoin %d; want %d, %d, 0",
					procs, shell.Hydrations(), parked, rejoin, sampled, sampled)
			}
			// Captured at 21d0fd1 (the parent commit) at GOMAXPROCS 1, 2, 8.
			if got, want := resultHash(res), uint64(0x742eef8643419e9f); got != want {
				t.Fatalf("GOMAXPROCS %d: result hash %#x, the parent commit's is %#x", procs, got, want)
			}
		})
	}
}

// TestDehydratedClientCarriesItsContinuation: the continuation is what makes
// a rehydrated client the one that parked. continuationConfig replays to its
// held hash when the rehydration restores it
// (TestLeaseKeepsPerClientStateAcrossWidths); a hydration that discards it,
// or only its jitter stream, or only its residuals, changes the run at
// GOMAXPROCS 1, 2 and 8.
func TestDehydratedClientCarriesItsContinuation(t *testing.T) {
	cfg := continuationConfig()
	for _, tc := range []struct {
		name   string
		forget func(*continuation) any
	}{
		{"discarded", func(*continuation) any { return nil }},
		{"jitter lost", func(k *continuation) any { kk := *k; kk.jitter = nil; return &kk }},
		{"residuals lost", func(k *continuation) any {
			kk := *k
			kk.updFeature, kk.updClassifier = nil, nil
			return &kk
		}},
	} {
		for _, procs := range []int{1, 2, 8} {
			atWidth(procs, func() {
				cl, err := cfg.Topology().Build()
				if err != nil {
					t.Fatal(err)
				}
				resumed := 0
				hydrate := cl.Hier.hydrate
				cl.Hier.hydrate = func(p hier.Profile, cont any, park func(any)) (comm.Handler, error) {
					if k, ok := cont.(*continuation); ok {
						resumed++
						cont = tc.forget(k)
					}
					return hydrate(p, cont, park)
				}
				res, err := runOn(cl, cfg.Transport, cfg.Link, 0, (*Deployment).Run)
				if err != nil {
					t.Fatal(err)
				}
				if resumed == 0 {
					t.Fatalf("%s at GOMAXPROCS %d: no client was rehydrated with a continuation", tc.name, procs)
				}
				if got := resultHash(res); got == goldenContinuation {
					t.Fatalf("%s at GOMAXPROCS %d: result hash %#x is the held one: the continuation carries nothing", tc.name, procs, got)
				}
			})
		}
	}
}

// TestDehydrationRetainsOnlyCutClients: a client is hydrated only while a
// round of it is open. When a clean tiered run finishes, no shell holds a
// client, and each hydration ended parked. When a run whose edges cut two
// stragglers every round finishes, those two — each restarted by every
// dispatch, so never parked — are the only clients still held, by one
// hydration each, while everyone else hydrated and parked once a round; the
// simulator then runs their last rounds out, and they park too. At
// GOMAXPROCS 1, 2 and 8.
func TestDehydrationRetainsOnlyCutClients(t *testing.T) {
	clean := hierTopology(2, 0.5)
	clean.SpeedJitter = 0.3
	cut := hierTopology(2, 0)
	cut.Speeds = []float64{0.05, 1, 1, 1, 1, 0.05, 1, 1, 1, 1, 1, 1}
	slow, _ := runHier(t, cut, TransportSim)
	// A fast client's round takes a twentieth of the stragglers'.
	cut.Chaos.RoundTimeout = slow.Rounds[0].Duration / 4
	// run drives top and returns its shells' counts when the federator
	// finished and after the run: hydrations, parked, rejoin drops, held.
	run := func(top Topology) (atFinish, after map[comm.NodeID][4]int) {
		t.Helper()
		cl, err := top.Build()
		if err != nil {
			t.Fatal(err)
		}
		counts := func() map[comm.NodeID][4]int {
			out := make(map[comm.NodeID][4]int, len(cl.Hier.Shells))
			for id, s := range cl.Hier.Shells {
				parked, rejoin := s.Dehydrations()
				held := 0
				if s.Hydrated() {
					held = 1
				}
				out[id] = [4]int{s.Hydrations(), parked, rejoin, held}
			}
			return out
		}
		cl.Federator.OnFinish = func(*Results) { atFinish = counts() }
		tr, err := NewTransport(TransportSim, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if _, err := (&Deployment{Cluster: cl, Transport: tr}).Run(); err != nil {
			t.Fatal(err)
		}
		return atFinish, counts()
	}
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			atFinish, after := run(clean)
			twice := false
			for id, got := range atFinish {
				if got[1] != got[0] || got[2] != 0 || got[3] != 0 || after[id] != got {
					t.Fatalf("clean, GOMAXPROCS %d: shell %d hydrations, parked, rejoin drops, held = %v at the finish and %v after the run",
						procs, id, got, after[id])
				}
				twice = twice || got[1] > 1
			}
			if !twice {
				t.Fatalf("clean, GOMAXPROCS %d: nobody was sampled twice", procs)
			}

			atFinish, after = run(cut)
			if len(atFinish) != cut.Clients {
				t.Fatalf("cut, GOMAXPROCS %d: %d shells, want every client's", procs, len(atFinish))
			}
			for id, got := range atFinish {
				want, then := [4]int{cut.Rounds, cut.Rounds, 0, 0}, [4]int{cut.Rounds, cut.Rounds, 0, 0}
				if cut.Speeds[id] < 1 {
					want, then = [4]int{1, 0, 0, 1}, [4]int{1, 1, 0, 0}
				}
				if got != want || after[id] != then {
					t.Fatalf("cut, GOMAXPROCS %d: shell %d hydrations, parked, rejoin drops, held = %v at the finish and %v after the run, want %v and %v",
						procs, id, got, after[id], want, then)
				}
			}
		})
	}
}
