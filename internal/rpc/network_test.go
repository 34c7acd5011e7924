package rpc

import (
	"runtime"
	"sync/atomic"
	"testing"

	"aergia/internal/comm"
)

// echoNode bounces every message back to its sender and, like a comm.Stack
// node resolving its env lazily, looks its own node up on the network for
// each delivery — from the peer's reader goroutine.
type echoNode struct {
	net  *Network
	id   comm.NodeID
	seen *atomic.Int64
}

func (e *echoNode) OnMessage(_ comm.Env, msg comm.Message) {
	e.seen.Add(1)
	e.net.Env(e.id).Send(comm.Message{To: msg.From, Kind: comm.KindTrain, Payload: pingPayload{Text: "echo"}})
}

// TestNetworkCloseWithMessagesInFlight closes a network while its reader
// goroutines are delivering: Close must not touch what they read. Before the
// fix it deleted from the peer map under them (one failure in 45 -race runs
// of fl's TestRunTCPTimeoutFailsCleanly); CI runs this at -race -count=50.
func TestNetworkCloseWithMessagesInFlight(t *testing.T) {
	RegisterPayload(pingPayload{})
	const nodes = 4
	n := NewNetwork()
	var seen atomic.Int64
	for id := comm.NodeID(0); id < nodes; id++ {
		n.Register(id, &echoNode{net: n, id: id, seen: &seen})
	}
	if err := n.Seal(); err != nil {
		t.Fatal(err)
	}
	// Every pair starts a ping-pong that never ends by itself.
	for id := comm.NodeID(0); id < nodes; id++ {
		n.Invoke(id, func(env comm.Env) {
			env.Send(comm.Message{To: (id + 1) % nodes, Kind: comm.KindTrain, Payload: pingPayload{Text: "serve"}})
		})
	}
	for seen.Load() < 8*nodes {
		runtime.Gosched()
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Close joined every reader: nothing is delivered after it returned.
	after := seen.Load()
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := seen.Load(); got != after {
		t.Fatalf("%d messages delivered after Close returned", got-after)
	}
	// The map is as Seal left it: a late timer still resolves its node.
	for id := comm.NodeID(0); id < nodes; id++ {
		n.Env(id).Send(comm.Message{To: 0, Kind: comm.KindTrain}) // dropped: closed
	}
}
