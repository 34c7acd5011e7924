package fl

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"aergia/internal/cluster"
	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/sched"
	"aergia/internal/tensor"
)

// A client leases its network from the run's free list while its round's
// lane steps train it (DESIGN.md §11). These tests are the lease's licence: a
// network a previous holder left in any state trains the next round to the
// same bits as a fresh one, no network ever has two holders, hydration costs
// what it is budgeted, the replicas a run builds follow the lane width, and
// the state a lease must not touch — the jitter stream, the topk residuals —
// replays at every width.

// leaseLedger is the test hook on laneGroup.onLease: who holds what, by
// pointer.
type leaseLedger struct {
	mu      sync.Mutex
	held    map[*nn.Network]bool
	seen    map[*nn.Network]bool
	takes   int
	reused  int // takes of a network that had been out before
	faults  []string
	maxHeld int
}

func newLeaseLedger() *leaseLedger {
	return &leaseLedger{held: map[*nn.Network]bool{}, seen: map[*nn.Network]bool{}}
}

func (l *leaseLedger) observe(net *nn.Network, take bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case take && l.held[net]:
		l.faults = append(l.faults, fmt.Sprintf("network %p leased while already held", net))
	case !take && !l.held[net]:
		l.faults = append(l.faults, fmt.Sprintf("network %p returned by a non-holder", net))
	}
	if take {
		l.takes++
		if l.seen[net] {
			l.reused++
		}
		l.seen[net] = true
		l.held[net] = true
		if len(l.held) > l.maxHeld {
			l.maxHeld = len(l.held)
		}
	} else {
		delete(l.held, net)
	}
}

// dirtyNet leaves on the group's free list a network in the worst state a
// holder can leave one: other weights, trained on other data (gradients,
// workspaces, input staging all used), feature section frozen.
func dirtyNet(t *testing.T, g *laneGroup, be tensor.Backend) *nn.Network {
	t.Helper()
	net, err := g.takeNet(nn.ArchMNISTSmall, be)
	if err != nil {
		t.Fatal(err)
	}
	other, err := nn.Build(nn.ArchMNISTSmall, 777)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.LoadWeights(other.SnapshotWeights()); err != nil {
		t.Fatal(err)
	}
	data, err := dataset.Generate(dataset.Config{Kind: dataset.MNIST, N: 12, Seed: 99, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys, err := data.Batches(6)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewSGD(0.3)
	opt.Backend = be
	if _, err := net.TrainBatch(xs[0], ys[0], opt); err != nil {
		t.Fatal(err)
	}
	net.SetFeaturesFrozen(true)
	if _, err := net.TrainBatch(xs[1], ys[1], opt); err != nil {
		t.Fatal(err)
	}
	g.putNet(net)
	return net
}

// TestLeasedDirtyNetworkTrainsLikeFresh: a round on a dirtied network sends
// what a round on a fresh one sends, message for message and bit for bit —
// a plain round, the weak side of an offload (freeze, ship, frozen tail) and
// the strong side (own round, then the helper job, whose scratch is the
// network the own round has just handed back), on both element types.
func TestLeasedDirtyNetworkTrainsLikeFresh(t *testing.T) {
	scenarios := []struct {
		name  string
		speed float64
		takes int // leases the scenario takes
		drive func(h *protoHarness)
	}{
		{"plain", 0.5, 1, func(h *protoHarness) {
			h.sendTrain()
			h.kernel.Run()
		}},
		{"weak", 0.2, 1, func(h *protoHarness) {
			h.sendTrain()
			h.kernel.RunUntil(time.Second)
			h.network.Env(comm.FederatorID).Send(comm.Message{
				To: 1, Round: 0, Kind: comm.KindSchedule,
				Payload: h.signedDirective(sched.Directive{
					Client: 1, Round: 0, Role: sched.RoleOffload, Peer: 2, OffloadAfter: 3,
				}),
			})
			h.kernel.Run()
		}},
		{"strong", 1.0, 2, func(h *protoHarness) {
			h.sendTrain()
			h.kernel.RunUntil(time.Millisecond)
			h.network.Env(comm.FederatorID).Send(comm.Message{
				To: 1, Round: 0, Kind: comm.KindSchedule,
				Payload: h.signedDirective(sched.Directive{
					Client: 1, Round: 0, Role: sched.RoleReceive, Peer: 2, OffloadedUpdates: 4,
				}),
			})
			weak, err := nn.Build(nn.ArchMNISTSmall, 123)
			if err != nil {
				h.t.Fatal(err)
			}
			h.network.Env(2).Send(comm.Message{
				To: 1, Round: 0, Kind: comm.KindOffload,
				Payload: OffloadPayload{Weak: 2, Weights: weak.SnapshotWeights(), Updates: 4},
			})
			h.kernel.Run()
		}},
	}
	for _, name := range []string{"serial", "serial32"} {
		be, err := tensor.NewBackend(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scenarios {
			run := func(dirty bool) string {
				h := newProtoHarness(t, sc.speed)
				ledger := newLeaseLedger()
				g := newLaneGroup()
				var planted *nn.Network
				if dirty {
					planted = dirtyNet(t, g, be)
				}
				g.onLease = ledger.observe
				h.client.Backend, h.client.lanes = be, g
				sc.drive(h)
				g.drain()
				if dirty && (!ledger.seen[planted] || len(ledger.seen) != 1) {
					t.Fatalf("%s on %s: the round drew %d networks, the dirtied one among them: %v",
						sc.name, name, len(ledger.seen), ledger.seen[planted])
				}
				if ledger.takes != sc.takes || len(ledger.faults) != 0 {
					t.Fatalf("%s on %s: %d leases (want %d), faults %v", sc.name, name, ledger.takes, sc.takes, ledger.faults)
				}
				return fmt.Sprintf("federator %v\npeer %v", h.fed.msgs, h.peer.msgs)
			}
			fresh, dirtied := run(false), run(true)
			if fresh != dirtied {
				t.Fatalf("%s on %s: a round on a dirtied network sent other bits than on a fresh one", sc.name, name)
			}
			if len(fresh) < 1000 {
				t.Fatalf("%s on %s: the round sent no model (%d bytes of messages)", sc.name, name, len(fresh))
			}
		}
	}
}

// TestNoNetworkHasTwoHolders drives the runs that move leases around — a
// tiered run whose clients are resampled, an Aergia run with helper jobs, a
// run a deadline cuts, a churned run with rejoins — at every width, with the
// ledger on: a take of a held network or a put by a non-holder fails the
// test, the race detector watches the networks themselves, and a finished
// run leaves nothing on the list.
func TestNoNetworkHasTwoHolders(t *testing.T) {
	tiered := testConfig(NewFedAvg(0))
	tiered.Clients, tiered.TrainSamples, tiered.Rounds = 16, 256, 6
	tiered.Hier = hier.Options{Tiers: 2, Sample: 0.5}
	// The four slow clients take ten times the fast ones' round; a deadline
	// at a fifth of it cuts exactly them, every round, and a cut client
	// keeps its lease into the next dispatch.
	deadline := testConfig(NewFedAvg(0))
	deadline.Speeds = []float64{0.05, 0.06, 0.07, 0.08, 0.9, 0.9, 0.9, 0.9}
	uncut, err := Run(deadline)
	if err != nil {
		t.Fatal(err)
	}
	deadline.Strategy = NewDeadlineFedAvg(0, uncut.Rounds[0].Duration/5)
	for _, tc := range []struct {
		name string
		cfg  Config
		// reuse: the run must draw at least one network a second time.
		reuse bool
		// helpers: more leases than client-rounds, the rest are helper jobs.
		helpers bool
	}{
		{name: "tiered", cfg: tiered, reuse: true},
		{name: "aergia", cfg: aergiaShapedConfig(), reuse: true, helpers: true},
		{name: "deadline", cfg: deadline, reuse: true},
		{name: "churn", cfg: churnTopKConfig(), reuse: true},
	} {
		for _, procs := range []int{1, 2, 8} {
			atWidth(procs, func() {
				dep, _ := buildChaosDeployment(t, tc.cfg, tc.cfg.Chaos)
				ledger := newLeaseLedger()
				dep.Cluster.lanes.onLease = ledger.observe
				res, err := dep.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(ledger.faults) != 0 {
					t.Fatalf("%s at GOMAXPROCS %d: %v", tc.name, procs, ledger.faults)
				}
				if ledger.takes == 0 || (tc.reuse && ledger.reused == 0) {
					t.Fatalf("%s at GOMAXPROCS %d: %d leases, %d of a network that had been out before",
						tc.name, procs, ledger.takes, ledger.reused)
				}
				clientRounds := 0
				for _, r := range res.Rounds {
					clientRounds += r.Completed
				}
				if tc.helpers && (res.TotalOffloads() == 0 || ledger.takes <= clientRounds) {
					t.Fatalf("%s at GOMAXPROCS %d: %d offloads, %d leases for %d client-rounds: no helper leased a scratch",
						tc.name, procs, res.TotalOffloads(), ledger.takes, clientRounds)
				}
				// A network per client in flight, plus at most one per helper
				// job running beside them; rejoins and resamples build none.
				most := tc.cfg.Clients
				if tc.helpers {
					most *= 2
				}
				if len(ledger.seen) > most {
					t.Fatalf("%s at GOMAXPROCS %d: built %d networks for %d clients", tc.name, procs, len(ledger.seen), tc.cfg.Clients)
				}
				if n := len(dep.Cluster.lanes.free); n != 0 {
					t.Fatalf("%s at GOMAXPROCS %d: %d networks on the free list after Run", tc.name, procs, n)
				}
				t.Logf("%s at GOMAXPROCS %d: %d leases of %d networks, at most %d out at once",
					tc.name, procs, ledger.takes, len(ledger.seen), ledger.maxHeld)
			})
		}
	}
}

// TestHydrationBudget counts what hydrating one ArchMNISTSmall client on
// serial32 allocates up to the point its first batch could run: the shard and
// the round's bookkeeping, whether or not the free list has a network — the
// dispatch leases none, the round's first lane step does — and, apart, what
// that step's lease costs: nothing with a free network, one blank float32
// replica without. When a client leased its network at dispatch, hydration
// allocated 17232 B with a free network and 75472 B without; before the
// lease, 205–208 kB (ten prototypes, a float64 network with drawn weights,
// its float32 copy). The pins are the measured values + 10%; recomputing the
// prototypes (+16 kB), building in float64 (+106 kB) or leasing at dispatch
// again (+58 kB cold) breaks them.
func TestHydrationBudget(t *testing.T) {
	const (
		hydration = 19000 // measured 17168-17552 B
		replica   = 64000 // measured 57912 B
	)
	be, err := tensor.NewBackend("serial32", 0)
	if err != nil {
		t.Fatal(err)
	}
	top := hierTopology(2, 0.5)
	top.Clients, top.TrainSamples, top.BatchSize = 64, 8*64, 4
	top.Backend = be
	// Width 1: no lane worker exists, so nothing trains (and no workspace is
	// allocated) before a join — the measurement ends where the first batch
	// would begin.
	atWidth(1, func() {
		cl, err := top.Build()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTransport(TransportSim, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		for id := range comm.NodeID(top.Clients) {
			tr.Register(id, cl.Hier.Shell(id))
		}
		tr.Register(comm.FederatorID, &recorder{})
		if err := tr.Seal(); err != nil {
			t.Fatal(err)
		}
		defer cl.lanes.drain()
		ledger := newLeaseLedger()
		cl.lanes.onLease = ledger.observe
		dispatch := comm.Message{From: comm.FederatorID, Kind: comm.KindTrain, Payload: TrainPayload{
			Config: LocalConfig{Epochs: 1, BatchSize: top.BatchSize, LR: 0.05},
			Global: cl.Federator.GlobalWeights(),
		}}
		allocated := func(fn func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		hydrate := func(id comm.NodeID) uint64 {
			shell, env := cl.Hier.Shell(id), tr.Env(id)
			n := allocated(func() { shell.OnMessage(env, dispatch) })
			if !shell.Hydrated() {
				t.Fatalf("shell %d did not hydrate", id)
			}
			return n
		}
		cold := hydrate(3) // the free list is empty
		spare, err := cl.lanes.takeNet(top.Arch, be)
		if err != nil {
			t.Fatal(err)
		}
		cl.lanes.putNet(spare)
		warm := hydrate(4) // the free list holds the spare
		if ledger.takes != 1 {
			t.Fatalf("%d leases after two dispatches and a spare: a dispatch leased a network", ledger.takes)
		}
		cl.lanes.onLease = nil // the ledger's maps would allocate in the window
		// What the rounds' first steps lease: the spare, then a blank replica.
		var nets [2]*nn.Network
		lease := func(i int) uint64 {
			return allocated(func() {
				if nets[i], err = cl.lanes.takeNet(top.Arch, be); err != nil {
					t.Fatal(err)
				}
			})
		}
		free, blank := lease(0), lease(1)
		t.Logf("hydration allocates %d B with a free network, %d B without; a lease %d B with, %d B without",
			warm, cold, free, blank)
		for _, n := range []uint64{cold, warm} {
			if n > hydration {
				t.Errorf("hydration allocated %d B, budget %d", n, hydration)
			}
		}
		if free != 0 || nets[0] != spare {
			t.Errorf("leasing the free network allocated %d B (the spare drawn: %v)", free, nets[0] == spare)
		}
		if blank > replica {
			t.Errorf("leasing a blank replica allocated %d B, budget %d", blank, replica)
		}
		if blank < 6582*4*2 {
			t.Errorf("a blank replica cost %d B, less than its %d float32 parameters and gradients", blank, 6582)
		}
	})
}

// TestLeaseSpansOnlyTraining: a client holds its network only while a lane
// trains it, so a tiered round of a 512-client cohort builds at most one
// network per lane, and one more for slack — where a lease from dispatch to
// update built 512 — and a finished run holds none.
func TestLeaseSpansOnlyTraining(t *testing.T) {
	top := hierTopology(4, 0)
	top.Clients, top.TrainSamples, top.Rounds = 512, 512*4, 1
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			cl, err := top.Build()
			if err != nil {
				t.Fatal(err)
			}
			ledger := newLeaseLedger()
			cl.lanes.onLease = ledger.observe
			if _, err := runOn(cl, TransportSim, nil, 0, (*Deployment).Run); err != nil {
				t.Fatal(err)
			}
			if hydrated := len(hydratedSet(cl)); hydrated != top.Clients || ledger.takes != top.Clients {
				t.Fatalf("GOMAXPROCS %d: %d leases by %d hydrated clients, want one each of %d", procs, ledger.takes, hydrated, top.Clients)
			}
			if built, most := len(ledger.seen), procs+1; built > most || len(ledger.faults) != 0 || len(ledger.held) != 0 {
				t.Fatalf("GOMAXPROCS %d: built %d networks (at most %d), %d held after the run, faults %v",
					procs, built, most, len(ledger.held), ledger.faults)
			}
			t.Logf("GOMAXPROCS %d: %d leases of %d networks, at most %d out at once", procs, ledger.takes, len(ledger.seen), ledger.maxHeld)
		})
	}
}

// TestRunEndsEveryLease: a weak client that froze in the last round keeps
// its network for a helper reassignment that can no longer come; the run's
// drain ends that lease, and every other, so a finished cluster holds no
// network.
func TestRunEndsEveryLease(t *testing.T) {
	cfg := aergiaShapedConfig()
	cl, err := cfg.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	ledger := newLeaseLedger()
	cl.lanes.onLease = ledger.observe
	if _, err := runOn(cl, cfg.Transport, cfg.Link, 0, (*Deployment).Run); err != nil {
		t.Fatal(err)
	}
	frozen := 0
	for _, c := range cl.Clients {
		if c.frozen {
			frozen++
		}
		if c.lease != nil && c.lease.net.Load() != nil {
			t.Errorf("client %d (frozen %v) still holds a network after the run", c.ID, c.frozen)
		}
	}
	if frozen == 0 {
		t.Fatal("no client froze in the last round: the kept lease went unexercised")
	}
	if len(ledger.held) != 0 || len(ledger.faults) != 0 {
		t.Fatalf("%d networks held after the run, faults %v", len(ledger.held), ledger.faults)
	}
}

// TestLeaseKeepsPerClientStateAcrossWidths: what a lease must not touch is
// the state that stays with the client between rounds — its jitter stream
// and, under topk, its residual error feedback. A tiered, sampled run with
// both replays to one hash at GOMAXPROCS 1, 2 and 8, and it is the hash of
// the parent commit, where every client owned its network for life.
func TestLeaseKeepsPerClientStateAcrossWidths(t *testing.T) {
	cfg := testConfig(NewFedAvg(0))
	cfg.Clients, cfg.TrainSamples, cfg.Rounds = 16, 256, 6
	cfg.Speeds = nil
	cfg.SpeedJitter = 0.3
	cfg.Codec = codec.TopK
	cfg.Hier = hier.Options{Tiers: 2, Sample: 0.5}
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			cl, err := cfg.Topology().Build()
			if err != nil {
				t.Fatal(err)
			}
			ledger := newLeaseLedger()
			cl.lanes.onLease = ledger.observe
			models := evaluatedModels(cl)
			res, err := runOn(cl, cfg.Transport, cfg.Link, 0, (*Deployment).Run)
			if err != nil {
				t.Fatal(err)
			}
			if hydrated := len(hydratedSet(cl)); ledger.takes <= hydrated {
				t.Fatalf("%d leases by %d clients: nobody was sampled twice", ledger.takes, hydrated)
			}
			// Captured at 1f74e52 (the parent commit) at GOMAXPROCS 1, 2, 8.
			if got, want := resultHash(res), uint64(0xd7afb1ee1995a311); got != want {
				t.Fatalf("GOMAXPROCS %d: result hash %#x, the parent commit's is %#x", procs, got, want)
			}
			// Captured at 314eb1f, before the round machine, at GOMAXPROCS 1, 2, 8.
			if got, want := models(), uint64(0x39a3d67743089a05); got != want {
				t.Fatalf("GOMAXPROCS %d: evaluated-model hash %#x, the parent commit's is %#x", procs, got, want)
			}
		})
	}
}

// TestShardLivesForItsRound: a hierarchical client draws its shard at each
// dispatch into sample tensors leased from the run's free list and hands
// them back with its update. A tiered, class-skewed, sampled run with jitter
// and topk, in which clients are sampled again, replays to one hash at
// GOMAXPROCS 1, 2 and 8, the parent commit's, where a client drew its shard
// once at hydration and kept it; the later rounds' shards are drawn into
// tensors an earlier round returned, and after the run every incarnation has
// handed its shard and network back and no shell holds a client: each parked
// after its update, taking the rest of its round with it.
func TestShardLivesForItsRound(t *testing.T) {
	cfg := testConfig(NewFedAvg(0))
	cfg.Clients, cfg.TrainSamples, cfg.Rounds = 16, 256, 6
	cfg.Speeds = nil
	cfg.SpeedJitter = 0.3
	cfg.NonIIDClasses = 3
	cfg.Codec = codec.TopK
	cfg.Hier = hier.Options{Tiers: 2, Sample: 0.5}
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			cl, err := cfg.Topology().Build()
			if err != nil {
				t.Fatal(err)
			}
			ledger := newLeaseLedger()
			cl.lanes.onLease = ledger.observe
			var clients []*Client
			draws, tensors := 0, map[*tensor.Tensor]bool{}
			hydrate := cl.Hier.hydrate
			cl.Hier.hydrate = func(p hier.Profile, cont any, park func(any)) (comm.Handler, error) {
				h, err := hydrate(p, cont, park)
				if err != nil {
					return nil, err
				}
				c := h.(*Client)
				shard := c.shard
				c.shard = func() (*dataset.Dataset, error) {
					ds, err := shard()
					if err == nil {
						draws++
						for _, s := range ds.Samples {
							tensors[s.X] = true
						}
					}
					return ds, err
				}
				clients = append(clients, c)
				return c, nil
			}
			res, err := runOn(cl, cfg.Transport, cfg.Link, 0, (*Deployment).Run)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("GOMAXPROCS %d: %d rounds of %d clients drew %d shards into %d tensors", procs, ledger.takes, len(hydratedSet(cl)), draws, len(tensors))
			if hydrated := len(hydratedSet(cl)); ledger.takes <= hydrated {
				t.Fatalf("%d leases by %d clients: nobody was sampled twice", ledger.takes, hydrated)
			}
			if draws != ledger.takes {
				t.Fatalf("%d rounds drew %d shards: a round trained on a shard an earlier one kept", ledger.takes, draws)
			}
			// Leased at once: at most every client's kept samples, and the
			// over-generation of the one draw being filtered (16 samples of 3
			// classes from 2 × 16 × 10/3 drawn).
			perClient := cfg.TrainSamples / cfg.Clients
			if most := cfg.TrainSamples + 2*perClient*10/cfg.NonIIDClasses; len(tensors) > most {
				t.Fatalf("%d shards drawn into %d distinct tensors (at most %d): the returned ones were not reused", draws, len(tensors), most)
			}
			for _, c := range clients {
				if c.Data != nil || c.batchXs != nil || (c.lease != nil && c.lease.net.Load() != nil) {
					t.Fatalf("client %d holds its round after the run: shard %v, batches %d, network %v",
						c.ID, c.Data != nil, len(c.batchXs), c.lease != nil && c.lease.net.Load() != nil)
				}
			}
			for id, s := range cl.Hier.Shells {
				if s.Hydrated() {
					t.Fatalf("shell %d holds a client after the run", id)
				}
			}
			// Captured at d8deac8 (the parent commit) at GOMAXPROCS 1, 2, 8.
			if got, want := resultHash(res), uint64(0x9bbb35421f3916d0); got != want {
				t.Fatalf("GOMAXPROCS %d: result hash %#x, the parent commit's is %#x", procs, got, want)
			}
		})
	}
}

// TestFreeListStaysBoundedOverTCP runs a codec-free Aergia federation over
// TCP, in process. There a receiver returns the gob-decoded copy of an
// update, a vector it never took, while the sender's leased one is garbage
// once encoded. Takes and returns still balance round by round, so the idle
// list never holds more than about a round's vectors — clients plus lanes —
// where returning without taking would pile up rounds × clients.
func TestFreeListStaysBoundedOverTCP(t *testing.T) {
	cfg := Config{
		Strategy:     NewAergia(0, 1),
		Arch:         archForParity,
		Dataset:      dataset.MNIST,
		SmallImages:  true,
		Clients:      4,
		Rounds:       6,
		LocalEpochs:  2,
		BatchSize:    8,
		LR:           0.05,
		TrainSamples: 128,
		TestSamples:  50,
		// A slow straggler among fast peers offloads; the fast cost model
		// keeps the wall-clock sleeps short.
		Speeds:         []float64{0.2, 0.9, 1.0, 0.95},
		Cost:           cluster.CostModel{FLOPSPerSecond: 2e9},
		ProfileBatches: 1,
		Seed:           5,
		Transport:      TransportTCP,
	}
	cl, err := cfg.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	returns, maxIdle := 0, 0 // guarded by the group's mu, which onReturn runs under
	cl.lanes.onReturn = func(_ nn.Weights, idle []nn.Weights) {
		returns++
		maxIdle = max(maxIdle, len(idle)+1)
	}
	if _, err := runOn(cl, cfg.Transport, cfg.Link, time.Minute, (*Deployment).Run); err != nil {
		t.Fatal(err)
	}
	cl.lanes.mu.Lock()
	defer cl.lanes.mu.Unlock()
	if returns < cfg.Rounds*cfg.Clients {
		t.Fatalf("%d vectors returned in %d rounds of %d clients: the receivers keep what they are sent", returns, cfg.Rounds, cfg.Clients)
	}
	t.Logf("%d returns, at most %d idle", returns, maxIdle)
	if bound := cfg.Clients + laneWidth(); maxIdle > bound {
		t.Fatalf("the free list held %d idle vectors, bound %d (%d clients + %d lanes)", maxIdle, bound, cfg.Clients, laneWidth())
	}
}
