package fl

import (
	"crypto/rand"
	"testing"
	"time"

	"aergia/internal/comm"
	"aergia/internal/nn"
	"aergia/internal/profile"
	"aergia/internal/sched"
	"aergia/internal/sim"
)

// fakeClient responds to train requests with a canned update after a fixed
// virtual delay, letting the federator be unit-tested in isolation.
type fakeClient struct {
	id      comm.NodeID
	delay   time.Duration
	weights nn.Weights
	partial bool
	// trained counts the train requests received.
	trained int
}

func (c *fakeClient) OnMessage(env comm.Env, msg comm.Message) {
	if msg.Kind != comm.KindTrain {
		return
	}
	c.trained++
	round := msg.Round
	env.After(c.delay, func() {
		env.Send(comm.Message{
			To:    comm.FederatorID,
			Round: round,
			Kind:  comm.KindUpdate,
			Payload: UpdatePayload{Update: Update{
				Client:     c.id,
				Round:      round,
				NumSamples: 10,
				Steps:      5,
				Weights:    c.weights.Clone(),
				Partial:    c.partial,
			}},
		})
	})
}

func newFederatorHarness(t *testing.T, strat Strategy, delays []time.Duration) (*Federator, *sim.Kernel, []*fakeClient) {
	t.Helper()
	kernel := sim.NewKernel()
	network := sim.NewNetwork(kernel, nil)
	template, err := nn.Build(nn.ArchMNISTSmall, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := template.SnapshotWeights()
	infos := make([]ClientInfo, len(delays))
	clients := make([]*fakeClient, len(delays))
	for i, d := range delays {
		id := comm.NodeID(i)
		infos[i] = ClientInfo{ID: id, Samples: 10, Speed: 0.5}
		clients[i] = &fakeClient{id: id, delay: d, weights: w.Clone()}
		network.Register(id, clients[i])
	}
	signer, err := sched.NewSigner(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	fed := &Federator{
		Arch:     nn.ArchMNISTSmall,
		Strategy: strat,
		Clients:  infos,
		Local:    LocalConfig{Epochs: 1, BatchSize: 8, LR: 0.05},
		Rounds:   2,
		Signer:   signer,
		Seed:     2,
	}
	if err := fed.Init(); err != nil {
		t.Fatal(err)
	}
	network.Register(comm.FederatorID, fed)
	kernel.Schedule(0, func() { fed.Start(network.Env(comm.FederatorID)) })
	return fed, kernel, clients
}

func TestFederatorWaitsForAllUpdates(t *testing.T) {
	delays := []time.Duration{time.Second, 5 * time.Second, 2 * time.Second}
	fed, kernel, clients := newFederatorHarness(t, NewFedAvg(0), delays)
	kernel.Run()
	res := fed.Results()
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	for _, r := range res.Rounds {
		if r.Duration != 5*time.Second {
			t.Fatalf("round duration = %v, want the slowest client's 5s", r.Duration)
		}
		if r.Completed != 3 {
			t.Fatalf("completed = %d", r.Completed)
		}
	}
	for i, c := range clients {
		if c.trained != 2 {
			t.Fatalf("client %d trained %d times", i, c.trained)
		}
	}
}

func TestFederatorDeadlineCutsRound(t *testing.T) {
	delays := []time.Duration{time.Second, 10 * time.Second}
	fed, kernel, _ := newFederatorHarness(t,
		NewDeadlineFedAvg(0, 3*time.Second), delays)
	kernel.Run()
	res := fed.Results()
	for _, r := range res.Rounds {
		if r.Duration != 3*time.Second {
			t.Fatalf("round duration = %v, want the 3s deadline", r.Duration)
		}
		if r.Completed != 1 {
			t.Fatalf("completed = %d, want only the fast client", r.Completed)
		}
	}
}

func TestFederatorIgnoresStaleUpdate(t *testing.T) {
	// The straggler's round-0 update arrives during round 1 and must be
	// discarded (round tags, §4.1).
	delays := []time.Duration{time.Second, 10 * time.Second}
	fed, kernel, _ := newFederatorHarness(t,
		NewDeadlineFedAvg(0, 3*time.Second), delays)
	kernel.Run()
	res := fed.Results()
	// Round 1 still aggregates exactly one update (the fast client's for
	// round 1), not the straggler's stale round-0 update.
	if res.Rounds[1].Completed != 1 {
		t.Fatalf("round 1 completed = %d", res.Rounds[1].Completed)
	}
}

func TestFederatorInitValidation(t *testing.T) {
	if err := (&Federator{}).Init(); err == nil {
		t.Fatal("expected error for missing strategy")
	}
	if err := (&Federator{Strategy: NewFedAvg(0)}).Init(); err == nil {
		t.Fatal("expected error for zero rounds")
	}
	f := &Federator{Strategy: NewAergia(0, 1), Rounds: 1, Arch: nn.ArchMNISTSmall}
	if err := f.Init(); err == nil {
		t.Fatal("expected error for offloading strategy without signer")
	}
}

func TestFederatorRecombinesOffloadedModel(t *testing.T) {
	// Drive the federator manually: one weak update (partial) plus the
	// strong client's feature result must recombine before aggregation.
	kernel := sim.NewKernel()
	network := sim.NewNetwork(kernel, nil)
	template, err := nn.Build(nn.ArchMNISTSmall, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := template.SnapshotWeights()
	signer, err := sched.NewSigner(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	fed := &Federator{
		Arch:     nn.ArchMNISTSmall,
		Strategy: NewAergia(0, 1),
		Clients:  []ClientInfo{{ID: 0, Samples: 10, Speed: 0.1}, {ID: 1, Samples: 10, Speed: 1}},
		Local:    LocalConfig{Epochs: 1, BatchSize: 8, LR: 0.05, ProfileBatches: 1},
		Rounds:   1,
		Signer:   signer,
		Seed:     4,
	}
	if err := fed.Init(); err != nil {
		t.Fatal(err)
	}
	sink := &recorder{}
	network.Register(0, sink)
	network.Register(1, sink)
	network.Register(comm.FederatorID, fed)
	kernel.Schedule(0, func() { fed.Start(network.Env(comm.FederatorID)) })
	kernel.Run() // deliver train requests

	env := network.Env(0)
	// Profile reports: client 0 is the straggler.
	mk := func(id comm.NodeID, t123, t4 time.Duration) comm.Message {
		return comm.Message{
			To: comm.FederatorID, Round: 0, Kind: comm.KindProfile,
			Payload: ProfilePayload{Report: profileReport(id, t123, t4)},
		}
	}
	env.Send(mk(0, 400*time.Millisecond, 600*time.Millisecond))
	env.Send(mk(1, 40*time.Millisecond, 60*time.Millisecond))
	kernel.Run()
	// The federator must have scheduled the pair and sent directives.
	scheds := sink.byKind(comm.KindSchedule)
	if len(scheds) != 2 {
		t.Fatalf("schedule messages = %d, want 2", len(scheds))
	}

	// Weak update: classifier marker 3.0; stale features marker 1.0.
	weakW := w.Clone()
	for i := range weakW.Feature {
		weakW.Feature[i] = 1
	}
	for i := range weakW.Classifier {
		weakW.Classifier[i] = 3
	}
	env.Send(comm.Message{
		To: comm.FederatorID, Round: 0, Kind: comm.KindUpdate,
		Payload: UpdatePayload{Update: Update{
			Client: 0, Round: 0, NumSamples: 10, Steps: 5, Weights: weakW, Partial: true,
		}},
	})
	// Strong client's own update: all markers 5.0.
	strongW := w.Clone()
	for i := range strongW.Feature {
		strongW.Feature[i] = 5
	}
	for i := range strongW.Classifier {
		strongW.Classifier[i] = 5
	}
	env.Send(comm.Message{
		To: comm.FederatorID, Round: 0, Kind: comm.KindUpdate,
		Payload: UpdatePayload{Update: Update{
			Client: 1, Round: 0, NumSamples: 10, Steps: 5, Weights: strongW,
		}},
	})
	// The trained features for the weak model: marker 9.0.
	feat := make([]float64, len(w.Feature))
	for i := range feat {
		feat[i] = 9
	}
	env.Send(comm.Message{
		To: comm.FederatorID, Round: 0, Kind: comm.KindOffloadResult,
		Payload: OffloadResultPayload{Weak: 0, Strong: 1, Feature: feat},
	})
	kernel.Run()

	res := fed.Results()
	if len(res.Rounds) != 1 || res.Rounds[0].Completed != 2 {
		t.Fatalf("round stats = %+v", res.Rounds)
	}
	// Aggregated feature value = (9 + 5)/2 = 7 (recombined weak + strong);
	// without recombination it would be (1 + 5)/2 = 3.
	got := fed.GlobalWeights()
	if got.Feature[0] != 7 {
		t.Fatalf("aggregated feature = %v, want 7 (recombination)", got.Feature[0])
	}
	// Classifier = (3 + 5)/2 = 4 (weak classifier kept).
	if got.Classifier[0] != 4 {
		t.Fatalf("aggregated classifier = %v, want 4", got.Classifier[0])
	}
}

func profileReport(id comm.NodeID, t123, t4 time.Duration) profile.Report {
	return profile.Report{
		ClientID:  id,
		Batches:   1,
		FF:        t123 / 2,
		FC:        t123 / 4,
		BC:        t123 / 4,
		BF:        t4,
		Remaining: 10,
	}
}

// GlobalWeights snapshots the current global model.
func (f *Federator) GlobalWeights() nn.Weights { return f.global.SnapshotWeights() }
