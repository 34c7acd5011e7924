package fl

import (
	"crypto/rand"
	"testing"
	"time"

	"aergia/internal/cluster"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/nn"
	"aergia/internal/sched"
	"aergia/internal/sim"
)

// recorder captures messages delivered to a node.
type recorder struct {
	msgs []comm.Message
}

func (r *recorder) OnMessage(_ comm.Env, msg comm.Message) {
	r.msgs = append(r.msgs, msg)
}

func (r *recorder) byKind(kind comm.Kind) []comm.Message {
	var out []comm.Message
	for _, m := range r.msgs {
		if m.Kind == kind {
			out = append(out, m)
		}
	}
	return out
}

// protoHarness wires one real client, a peer recorder, and a federator
// recorder onto a simulated network.
type protoHarness struct {
	t        *testing.T
	kernel   *sim.Kernel
	network  *sim.Network
	client   *Client
	fed      *recorder
	peer     *recorder
	signer   *sched.Signer
	trainCfg TrainPayload
}

func newProtoHarness(t *testing.T, speed float64) *protoHarness {
	t.Helper()
	signer, err := sched.NewSigner(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{
		Kind: dataset.MNIST, N: 40, Seed: 9, Small: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		ID:               1,
		Arch:             nn.ArchMNISTSmall,
		Data:             ds,
		Speed:            speed,
		Cost:             cluster.DefaultCostModel(),
		Verifier:         sched.NewVerifier(signer.PublicKey()),
		ProfilerOverhead: -1,
	}
	if err := client.Init(); err != nil {
		t.Fatal(err)
	}
	kernel := sim.NewKernel()
	network := sim.NewNetwork(kernel, nil)
	fed, peer := &recorder{}, &recorder{}
	network.Register(1, client)
	network.Register(2, peer)
	network.Register(comm.FederatorID, fed)

	global, err := nn.Build(nn.ArchMNISTSmall, 9)
	if err != nil {
		t.Fatal(err)
	}
	h := &protoHarness{
		t: t, kernel: kernel, network: network,
		client: client, fed: fed, peer: peer, signer: signer,
		trainCfg: TrainPayload{
			Config: LocalConfig{
				Round: 0, Epochs: 2, BatchSize: 8, LR: 0.05, ProfileBatches: 1,
			},
			Global: global.SnapshotWeights(),
		},
	}
	return h
}

func (h *protoHarness) sendTrain() {
	h.network.Env(comm.FederatorID).Send(comm.Message{
		To: 1, Round: 0, Kind: comm.KindTrain, Payload: h.trainCfg,
	})
}

func (h *protoHarness) signedDirective(d sched.Directive) SchedulePayload {
	env, err := h.signer.Sign(d)
	if err != nil {
		h.t.Fatal(err)
	}
	return SchedulePayload{Envelope: env}
}

func TestClientSendsProfileThenUpdate(t *testing.T) {
	h := newProtoHarness(t, 0.5)
	h.sendTrain()
	h.kernel.Run()
	profiles := h.fed.byKind(comm.KindProfile)
	if len(profiles) != 1 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	p, ok := profiles[0].Payload.(ProfilePayload)
	if !ok {
		t.Fatalf("payload %T", profiles[0].Payload)
	}
	if err := p.Report.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 epochs × 5 batches = 10 total, 1 profiled → 9 remaining.
	if p.Report.Remaining != 9 {
		t.Fatalf("remaining = %d", p.Report.Remaining)
	}
	if p.Report.Task4() <= 0 || p.Report.Tasks123() <= 0 {
		t.Fatalf("report = %+v", p.Report)
	}
	updates := h.fed.byKind(comm.KindUpdate)
	if len(updates) != 1 {
		t.Fatalf("updates = %d", len(updates))
	}
	u, ok := updates[0].Payload.(UpdatePayload)
	if !ok || u.Update.Partial {
		t.Fatalf("update = %+v", updates[0].Payload)
	}
	if u.Update.Steps != 10 || u.Update.NumSamples != 40 {
		t.Fatalf("update steps=%d n=%d", u.Update.Steps, u.Update.NumSamples)
	}
}

func TestClientOffloadsOnDirective(t *testing.T) {
	h := newProtoHarness(t, 0.2)
	h.sendTrain()
	// Let the profile report go out, then deliver the offload directive.
	h.kernel.RunUntil(time.Duration(float64(time.Second)))
	directive := h.signedDirective(sched.Directive{
		Client: 1, Round: 0, Role: sched.RoleOffload, Peer: 2, OffloadAfter: 3,
	})
	h.network.Env(comm.FederatorID).Send(comm.Message{
		To: 1, Round: 0, Kind: comm.KindSchedule, Payload: directive,
	})
	h.kernel.Run()

	offloads := h.peer.byKind(comm.KindOffload)
	if len(offloads) != 1 {
		t.Fatalf("offloads = %d", len(offloads))
	}
	op, ok := offloads[0].Payload.(OffloadPayload)
	if !ok {
		t.Fatalf("payload %T", offloads[0].Payload)
	}
	if op.Weak != 1 {
		t.Fatalf("weak = %d", op.Weak)
	}
	if op.Updates <= 0 || op.Updates >= 10 {
		t.Fatalf("offloaded updates = %d", op.Updates)
	}
	if op.Weights.Len() == 0 {
		t.Fatal("offloaded model is empty")
	}
	updates := h.fed.byKind(comm.KindUpdate)
	if len(updates) != 1 {
		t.Fatalf("updates = %d", len(updates))
	}
	u, ok := updates[0].Payload.(UpdatePayload)
	if !ok || !u.Update.Partial {
		t.Fatal("weak client update should be partial after offloading")
	}
	// The frozen feature section must match the offloaded snapshot exactly.
	for i := range op.Weights.Feature {
		if op.Weights.Feature[i] != u.Update.Weights.Feature[i] {
			t.Fatal("frozen features changed after the offload point")
		}
	}
}

func TestClientOffloadShortensRound(t *testing.T) {
	// Without a directive the weak client takes the full duration; with
	// one, the bf-free tail must finish earlier.
	solo := newProtoHarness(t, 0.2)
	solo.sendTrain()
	solo.kernel.Run()
	soloEnd := solo.fed.byKind(comm.KindUpdate)[0]
	_ = soloEnd
	soloTime := solo.kernel.Now()

	off := newProtoHarness(t, 0.2)
	off.sendTrain()
	off.kernel.RunUntil(time.Second)
	off.network.Env(comm.FederatorID).Send(comm.Message{
		To: 1, Round: 0, Kind: comm.KindSchedule,
		Payload: off.signedDirective(sched.Directive{
			Client: 1, Round: 0, Role: sched.RoleOffload, Peer: 2, OffloadAfter: 2,
		}),
	})
	off.kernel.Run()
	offTime := off.kernel.Now()
	if offTime >= soloTime {
		t.Fatalf("offloaded round %v >= solo round %v", offTime, soloTime)
	}
}

func TestClientRejectsTamperedDirective(t *testing.T) {
	h := newProtoHarness(t, 0.2)
	h.sendTrain()
	h.kernel.RunUntil(time.Second)
	payload := h.signedDirective(sched.Directive{
		Client: 1, Round: 0, Role: sched.RoleOffload, Peer: 2, OffloadAfter: 3,
	})
	payload.Envelope.Directive.OffloadAfter = 1 // tamper after signing
	h.network.Env(comm.FederatorID).Send(comm.Message{
		To: 1, Round: 0, Kind: comm.KindSchedule, Payload: payload,
	})
	h.kernel.Run()
	if len(h.peer.byKind(comm.KindOffload)) != 0 {
		t.Fatal("client offloaded on a tampered directive")
	}
	// It must still complete the round normally.
	updates := h.fed.byKind(comm.KindUpdate)
	if len(updates) != 1 {
		t.Fatalf("updates = %d", len(updates))
	}
	if u, _ := updates[0].Payload.(UpdatePayload); u.Update.Partial {
		t.Fatal("update should be full after rejecting the directive")
	}
}

func TestClientRejectsReplayedDirective(t *testing.T) {
	h := newProtoHarness(t, 0.2)
	h.sendTrain()
	h.kernel.RunUntil(time.Second)
	payload := h.signedDirective(sched.Directive{
		Client: 1, Round: 0, Role: sched.RoleOffload, Peer: 2, OffloadAfter: 3,
	})
	env := h.network.Env(comm.FederatorID)
	env.Send(comm.Message{To: 1, Round: 0, Kind: comm.KindSchedule, Payload: payload})
	env.Send(comm.Message{To: 1, Round: 0, Kind: comm.KindSchedule, Payload: payload})
	h.kernel.Run()
	// The replay is dropped; exactly one offload happens.
	if n := len(h.peer.byKind(comm.KindOffload)); n != 1 {
		t.Fatalf("offloads = %d, want 1 (replay must be ignored)", n)
	}
}

func TestStrongClientRunsHelperTraining(t *testing.T) {
	h := newProtoHarness(t, 1.0)
	h.sendTrain()
	h.kernel.RunUntil(time.Millisecond) // deliver train request only
	// Directive: client 1 is the strong side receiving from client 2.
	h.network.Env(comm.FederatorID).Send(comm.Message{
		To: 1, Round: 0, Kind: comm.KindSchedule,
		Payload: h.signedDirective(sched.Directive{
			Client: 1, Round: 0, Role: sched.RoleReceive, Peer: 2,
			OffloadedUpdates: 4,
		}),
	})
	// The weak client's frozen model arrives.
	weakNet, err := nn.Build(nn.ArchMNISTSmall, 123)
	if err != nil {
		t.Fatal(err)
	}
	weakWeights := weakNet.SnapshotWeights()
	h.network.Env(2).Send(comm.Message{
		To: 1, Round: 0, Kind: comm.KindOffload,
		Payload: OffloadPayload{Weak: 2, Weights: weakWeights.Clone(), Updates: 4},
	})
	h.kernel.Run()

	results := h.fed.byKind(comm.KindOffloadResult)
	if len(results) != 1 {
		t.Fatalf("offload results = %d", len(results))
	}
	res, ok := results[0].Payload.(OffloadResultPayload)
	if !ok {
		t.Fatalf("payload %T", results[0].Payload)
	}
	if res.Weak != 2 || res.Strong != 1 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Feature) != len(weakWeights.Feature) {
		t.Fatalf("feature length = %d", len(res.Feature))
	}
	// Helper training must have changed the feature section.
	changed := false
	for i := range res.Feature {
		if res.Feature[i] != weakWeights.Feature[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("helper training left the offloaded features untouched")
	}
	// The strong client also sent its own full update.
	if len(h.fed.byKind(comm.KindUpdate)) != 1 {
		t.Fatal("strong client's own update missing")
	}
}

// TestStrongClientDropsStaleShipment: the strong client holds client 2's
// shipment when the federator repoints it at client 3 (client 2's pair was
// dropped, client 3's helper died). Finishing its own training with a
// shipment the directive no longer names must drop it, not occupy the
// helper, so client 3's re-ship still gets trained and returned — otherwise
// the round waits for client 3's features until its deadline, or forever.
func TestStrongClientDropsStaleShipment(t *testing.T) {
	h := newProtoHarness(t, 1.0)
	h.sendTrain()
	h.kernel.RunUntil(time.Millisecond) // deliver train request only
	fed := h.network.Env(comm.FederatorID)
	receive := func(peer comm.NodeID) {
		fed.Send(comm.Message{
			To: 1, Round: 0, Kind: comm.KindSchedule,
			Payload: h.signedDirective(sched.Directive{
				Client: 1, Round: 0, Role: sched.RoleReceive, Peer: peer, OffloadedUpdates: 4,
			}),
		})
	}
	ship := func(weak comm.NodeID, seed uint64) {
		net, err := nn.Build(nn.ArchMNISTSmall, seed)
		if err != nil {
			t.Fatal(err)
		}
		h.network.Env(weak).Send(comm.Message{
			To: 1, Round: 0, Kind: comm.KindOffload,
			Payload: OffloadPayload{Weak: weak, Weights: net.SnapshotWeights(), Updates: 4},
		})
	}
	receive(2)
	ship(2, 123)
	h.kernel.RunUntil(2 * time.Millisecond)
	receive(3)
	h.kernel.Run() // the client finishes its own training holding client 2's shipment
	if n := len(h.fed.byKind(comm.KindOffloadResult)); n != 0 {
		t.Fatalf("%d offload results for a shipment the directive no longer names", n)
	}
	ship(3, 124)
	h.kernel.Run()
	results := h.fed.byKind(comm.KindOffloadResult)
	if len(results) != 1 {
		t.Fatalf("offload results = %d, want client 3's", len(results))
	}
	if res, _ := results[0].Payload.(OffloadResultPayload); res.Weak != 3 || res.Strong != 1 {
		t.Fatalf("result = %+v, want weak 3 trained by strong 1", res)
	}
}

func TestClientIgnoresStaleOffload(t *testing.T) {
	h := newProtoHarness(t, 1.0)
	h.sendTrain()
	weakNet, err := nn.Build(nn.ArchMNISTSmall, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.network.Env(2).Send(comm.Message{
		To: 1, Round: 7, // stale round
		Kind:    comm.KindOffload,
		Payload: OffloadPayload{Weak: 2, Weights: weakNet.SnapshotWeights(), Updates: 2},
	})
	h.kernel.Run()
	if len(h.fed.byKind(comm.KindOffloadResult)) != 0 {
		t.Fatal("client processed a stale offload")
	}
}
