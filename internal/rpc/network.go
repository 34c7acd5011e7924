package rpc

import (
	"errors"
	"fmt"
	"time"

	"aergia/internal/comm"
)

// DefaultAddr is the listen address handed to every peer of a Network.
const DefaultAddr = "127.0.0.1:0"

// DefaultDriveTimeout bounds Network.Drive when Timeout is unset.
const DefaultDriveTimeout = 2 * time.Minute

// Network is the real-TCP comm.Transport: a single-process harness that
// runs one Peer per registered node on loopback and wires them into the
// fully connected topology the paper's testbed uses (§5.1). It is the
// wall-clock counterpart of sim.Network — fl.Deployment binds the same
// actors to either one (DESIGN.md §6). Multi-host deployments construct
// Peers directly; this type only packages the single-machine wiring
// (listen, registry exchange, shared epoch, shutdown).
type Network struct {
	// Addr is the listen address given to every peer ("127.0.0.1:0" when
	// empty); the OS picks distinct free ports.
	Addr string
	// Timeout bounds Drive; zero selects DefaultDriveTimeout.
	Timeout time.Duration

	order    []comm.NodeID
	handlers map[comm.NodeID]comm.Handler
	peers    map[comm.NodeID]*Peer
	sealed   bool
}

var (
	_ comm.Transport       = (*Network)(nil)
	_ comm.PayloadRegistry = (*Network)(nil)
)

// NewNetwork returns an empty TCP transport; register nodes, then Seal.
func NewNetwork() *Network {
	return &Network{
		handlers: make(map[comm.NodeID]comm.Handler),
		peers:    make(map[comm.NodeID]*Peer),
	}
}

// RegisterPayload implements comm.PayloadRegistry over the package's gob
// registry.
func (n *Network) RegisterPayload(v any) { RegisterPayload(v) }

// Register records a node; the peer is created by Seal so that a listen
// failure surfaces as an error instead of a panic.
func (n *Network) Register(id comm.NodeID, h comm.Handler) {
	if n.sealed {
		panic("rpc: Register after Seal")
	}
	if _, dup := n.handlers[id]; !dup {
		n.order = append(n.order, id)
	}
	n.handlers[id] = h
}

// Seal starts one listening peer per registered node, distributes the full
// address book, and aligns every peer on one clock epoch. After Seal the
// cluster is fully connected.
func (n *Network) Seal() error {
	if n.sealed {
		return errors.New("rpc: network already sealed")
	}
	addr := n.Addr
	if addr == "" {
		addr = DefaultAddr
	}
	registry := make(map[comm.NodeID]string, len(n.order))
	for _, id := range n.order {
		p, err := Listen(id, addr, n.handlers[id])
		if err != nil {
			cerr := n.Close()
			_ = cerr // listen error is the root cause; shutdown is best-effort
			return err
		}
		n.peers[id] = p
		registry[id] = p.Addr()
	}
	epoch := time.Now()
	for _, p := range n.peers {
		p.SetRegistry(registry)
		p.SetEpoch(epoch)
	}
	n.sealed = true
	return nil
}

// Env returns the execution environment of a sealed node.
func (n *Network) Env(id comm.NodeID) comm.Env {
	return n.peer(id).Env()
}

// Invoke runs fn immediately in id's actor context, serialized with that
// peer's message handling.
func (n *Network) Invoke(id comm.NodeID, fn func(comm.Env)) {
	p := n.peer(id)
	p.Invoke(func() { fn(p.Env()) })
}

func (n *Network) peer(id comm.NodeID) *Peer {
	p := n.peers[id]
	if p == nil {
		panic(fmt.Sprintf("rpc: node %d not registered (or network not sealed)", id))
	}
	return p
}

// Drive blocks until done is closed; unlike the self-draining simulator a
// real network cannot detect quiescence, so a timeout guards against a run
// that never completes.
func (n *Network) Drive(done <-chan struct{}) error {
	if !n.sealed {
		return errors.New("rpc: Drive before Seal")
	}
	timeout := n.Timeout
	if timeout <= 0 {
		timeout = DefaultDriveTimeout
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("rpc: run timed out after %v", timeout)
	}
}

// Close shuts down every peer, returning the first error. Shutdown is
// two-phase: all peers stop sending before any listener is torn down, so
// actor timers firing mid-shutdown drop their sends cleanly instead of
// dialing an already-closed sibling. The peer map is left as Seal filled it:
// reader goroutines and timers still resolve nodes through it until their
// peer's Close has joined them, and Peer.Close is idempotent, so a second
// Close is harmless.
func (n *Network) Close() error {
	for _, p := range n.peers {
		p.beginClose()
	}
	var err error
	for _, id := range n.order {
		p := n.peers[id]
		if p == nil {
			continue // Seal failed before this node listened
		}
		if cerr := p.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
