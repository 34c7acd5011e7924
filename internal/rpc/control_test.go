package rpc

import (
	"sync"
	"testing"
	"time"

	"aergia/internal/comm"
)

// ctlCollector is a comm.Handler that records everything it receives.
type ctlCollector struct {
	mu   sync.Mutex
	msgs []comm.Message
	ch   chan comm.Message
}

func newCtlCollector() *ctlCollector { return &ctlCollector{ch: make(chan comm.Message, 64)} }

func (c *ctlCollector) OnMessage(_ comm.Env, msg comm.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, msg)
	c.mu.Unlock()
	c.ch <- msg
}

func (c *ctlCollector) next(t *testing.T) comm.Message {
	t.Helper()
	select {
	case m := <-c.ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a message")
		return comm.Message{}
	}
}

// TestControlProtocolRoundTrip drives the register→lease→result exchange
// over real TCP: a worker peer attaches with a heartbeat that asks for
// work, and the control's grant and the worker's result survive the wire
// hop intact — including the opaque JSON spec/record bytes, the fencing
// Seq and the result's request.
func TestControlProtocolRoundTrip(t *testing.T) {
	control := newCtlCollector()
	cp, err := Listen(ControlID, "127.0.0.1:0", control)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()

	worker := newCtlCollector()
	const workerID comm.NodeID = 7
	wp, err := Listen(workerID, "127.0.0.1:0", worker)
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	wp.SetRegistry(map[comm.NodeID]string{ControlID: cp.Addr()})

	if err := wp.Send(comm.Message{To: ControlID, Kind: comm.KindControl,
		Payload: HeartbeatPayload{Name: "w1", Addr: wp.Addr(), Slots: 2, Want: 2}}); err != nil {
		t.Fatal(err)
	}
	beat := control.next(t)
	hp, ok := beat.Payload.(HeartbeatPayload)
	if !ok || beat.From != workerID || hp.Name != "w1" || hp.Slots != 2 || hp.Want != 2 {
		t.Fatalf("attach beat = %+v payload %#v", beat, beat.Payload)
	}
	// The control learns the worker's address from its beat, not from any
	// pre-shared registry.
	cp.AddRoute(workerID, hp.Addr)

	spec := []byte(`{"experiment":"fig4","options":{"quick":true}}`)
	if err := cp.Send(comm.Message{To: workerID, Kind: comm.KindControl,
		Payload: LeaseGrantPayload{Leases: []Lease{{ID: "fig4-abc", Seq: 41, Spec: spec}}}}); err != nil {
		t.Fatal(err)
	}
	grant := worker.next(t)
	gp := grant.Payload.(LeaseGrantPayload)
	if len(gp.Leases) != 1 || gp.Leases[0].ID != "fig4-abc" || gp.Leases[0].Seq != 41 ||
		string(gp.Leases[0].Spec) != string(spec) {
		t.Fatalf("grant = %+v", gp)
	}

	if err := wp.Send(comm.Message{To: ControlID, Kind: comm.KindControl,
		Payload: ResultPayload{ID: "fig4-abc", Seq: 41, Status: "done",
			ElapsedNS: 123, Result: []byte(`{"x":1}`), Want: 2}}); err != nil {
		t.Fatal(err)
	}
	res := control.next(t).Payload.(ResultPayload)
	if res.ID != "fig4-abc" || res.Seq != 41 || res.Status != "done" ||
		res.ElapsedNS != 123 || string(res.Result) != `{"x":1}` || res.Want != 2 {
		t.Fatalf("result = %+v", res)
	}

	// DropRoute makes the worker unreachable: the next send fails with an
	// error instead of panicking, which is the contract the control's
	// fault handling leans on.
	cp.DropRoute(workerID)
	if err := cp.Send(comm.Message{To: workerID, Kind: comm.KindControl,
		Payload: CancelPayload{ID: "fig4-abc"}}); err == nil {
		t.Fatal("send after DropRoute succeeded, want error")
	}
}
