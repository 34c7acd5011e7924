package fl

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/sim"
	"aergia/internal/tensor"
)

// countingNet is a sim.Network that counts the node entries it makes: one
// per Register, and one per ranged node it activates.
type countingNet struct {
	*sim.Network
	entries map[comm.NodeID]int
}

func (n *countingNet) Register(id comm.NodeID, h comm.Handler) {
	n.entries[id]++
	n.Network.Register(id, h)
}

func (n *countingNet) RegisterRange(lo, hi comm.NodeID, f func(comm.NodeID) comm.Handler) {
	n.Network.RegisterRange(lo, hi, func(id comm.NodeID) comm.Handler {
		n.entries[id]++
		return f(id)
	})
}

// TestHierMembershipFollowsTheActiveNodes: a tiered run of 20 000 clients
// with a cohort of 64 ends with stack and network entries for the
// federator, the edges and the clients it sampled, one each, and with a
// shell for each sampled client — none for the rest of the population.
func TestHierMembershipFollowsTheActiveNodes(t *testing.T) {
	const clients, cohort = 20000, 64
	top := hierTopology(8, float64(cohort)/clients)
	top.Clients, top.TrainSamples, top.Rounds, top.EvalEvery = clients, 8*clients, 2, 2
	cl, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	net := &countingNet{Network: sim.NewNetwork(sim.NewKernel(), nil), entries: map[comm.NodeID]int{}}
	stack := map[comm.NodeID]int{}
	tr := comm.Interceptor{State: func(id comm.NodeID) any { stack[id]++; return nil }}.On(net)
	if _, err := (&Deployment{Cluster: cl, Transport: tr}).Run(); err != nil {
		t.Fatal(err)
	}

	want := map[comm.NodeID]bool{comm.FederatorID: true}
	sampled := 0
	for _, e := range cl.Hier.Edges {
		want[e.ID] = true
		for r := range top.Rounds {
			for _, id := range e.Sampler.Cohort(r, e.Cohort) {
				if !want[id] {
					want[id] = true
					sampled++
				}
			}
		}
	}
	for name, got := range map[string]map[comm.NodeID]int{"stack": stack, "network": net.entries} {
		if len(got) != len(want) {
			t.Fatalf("%s holds %d nodes, want %d: the federator, %d edges and %d sampled clients",
				name, len(got), len(want), len(cl.Hier.Edges), sampled)
		}
		for id, n := range got {
			if !want[id] || n != 1 {
				t.Fatalf("%s made node %d %d times (sampled or structural: %v), want once if it is either", name, id, n, want[id])
			}
		}
	}
	if len(cl.Hier.Shells) != sampled {
		t.Fatalf("%d shells for %d sampled clients", len(cl.Hier.Shells), sampled)
	}
	for id, s := range cl.Hier.Shells {
		if !want[id] || s.Hydrations() != 1 {
			t.Fatalf("shell %d (sampled: %v) hydrated %d times, want once", id, want[id], s.Hydrations())
		}
	}
}

// TestHierBuildAllocationBudget: building the 100 000-client topology of
// the benchmark's hier_scale allocates what the cluster shares (data
// source, test set, evaluator) and 8 B a client of edge cohort lists, not a
// shell, profile or speed per client (15.0 MB when it did).
func TestHierBuildAllocationBudget(t *testing.T) {
	const clients, budget = 100000, 5 << 20
	be, err := tensor.NewBackend("serial32", 0)
	if err != nil {
		t.Fatal(err)
	}
	top := Topology{
		Strategy:     NewFedAvg(0),
		Arch:         nn.ArchMNISTSmall,
		Dataset:      dataset.MNIST,
		SmallImages:  true,
		Clients:      clients,
		Rounds:       2,
		BatchSize:    4,
		TrainSamples: 8 * clients,
		TestSamples:  256,
		EvalEvery:    2,
		Seed:         7172,
		Backend:      be,
		Hier:         hier.Options{Sample: 512.0 / clients, Tiers: 32},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl, err := top.Build()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("Build allocated %.2f MB for %d clients, budget %.2f MB", float64(got)/(1<<20), clients, float64(budget)/(1<<20))
	}
	if len(cl.Hier.Shells) != 0 {
		t.Fatalf("Build made %d shells; a shell is made when its client is first addressed", len(cl.Hier.Shells))
	}
}

// TestHierChaosMatchesEagerExpansion: with the population registered as a
// range, the fault layer activates only the members fated to crash, yet a
// tiered run crashes and rejoins exactly the nodes, at exactly the virtual
// times, that Plan.Expand over every ID lists — an explicit ScheduleCrash
// overriding its node's fate.
func TestHierChaosMatchesEagerExpansion(t *testing.T) {
	top := hierTopology(3, 0.25)
	top.Clients, top.TrainSamples = 400, 8*400
	top.Chaos = chaos.Plan{Churn: 0.05, Rejoin: 0.5, Window: 2 * time.Second, SpikeProb: 0.2, Seed: 3, RoundTimeout: 3 * time.Second}
	cl, err := top.Build()
	if err != nil {
		t.Fatal(err)
	}
	const pinned = comm.NodeID(17)
	pinnedAt, pinnedFor := 700*time.Millisecond, 300*time.Millisecond

	type event struct {
		node comm.NodeID
		down bool
		at   time.Duration
	}
	var want []event
	ids := []comm.NodeID{pinned}
	for _, e := range cl.Hier.Edges {
		ids = append(ids, e.ID)
	}
	for id := range comm.NodeID(top.Clients) {
		ids = append(ids, id)
	}
	for _, f := range cl.Topology.Chaos.Expand(cl.Topology.Seed, ids) {
		if f.Node == pinned {
			t.Fatalf("client %d is already fated to crash; pin another", pinned)
		}
		if f.Crashes {
			want = append(want, event{f.Node, true, f.CrashAt})
			if f.Rejoins {
				want = append(want, event{f.Node, false, f.RejoinAt})
			}
		}
	}
	want = append(want, event{pinned, true, pinnedAt}, event{pinned, false, pinnedAt + pinnedFor})
	if len(want) < 10 {
		t.Fatalf("the plan crashes %d nodes; the test needs more", len(want))
	}

	var got []event
	ct := chaos.New(sim.NewNetwork(sim.NewKernel(), nil), cl.Topology.Chaos, cl.Topology.Seed)
	ct.ScheduleCrash(pinned, pinnedAt, pinnedFor)
	tr := comm.Interceptor{Deliver: func(l comm.Layer, msg comm.Message) {
		if fp, ok := msg.Payload.(comm.FaultPayload); ok && l.ID() == comm.FederatorID {
			got = append(got, event{fp.Node, fp.Down, l.Now()})
		}
		l.Deliver(msg)
	}}.On(ct)
	res, err := (&Deployment{Cluster: cl, Transport: tr}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != top.Rounds {
		t.Fatalf("completed %d of %d rounds", len(res.Rounds), top.Rounds)
	}
	order := func(a, b event) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.node - b.node)
	}
	slices.SortFunc(want, order)
	if !slices.IsSortedFunc(got, order) {
		t.Fatalf("fault events out of time and node order: %v", got)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the run faulted\n %v\nwhere the eager expansion lists\n %v", got, want)
	}
	if st := ct.Stats(); st.Crashes+st.Rejoins != len(want) {
		t.Fatalf("fault layer counted %+v for %d expected events", st, len(want))
	}
	if len(cl.Hier.Shells) >= top.Clients {
		t.Fatalf("%d shells for %d clients: the fault layer activated the population", len(cl.Hier.Shells), top.Clients)
	}
}
