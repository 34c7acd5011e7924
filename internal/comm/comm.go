// Package comm defines the transport-agnostic messaging contract shared by
// the federated-learning actors. The paper's testbed is a fully connected
// peer-to-peer RPC network with asynchronous but reliable delivery (§3.1);
// this package captures that contract so the same federator/client state
// machines run unchanged over the virtual-time simulated network
// (internal/sim) and the real TCP transport (internal/rpc).
package comm

import "time"

// NodeID identifies a participant. The federator is FederatorID; clients
// use non-negative IDs.
type NodeID int

// FederatorID is the well-known identity of the central federator.
const FederatorID NodeID = -1

// Kind tags the protocol message types exchanged during a round.
type Kind int

// Protocol message kinds.
const (
	// KindTrain is sent by the federator to start local training
	// (carries the global model).
	KindTrain Kind = iota + 1
	// KindProfile is a client's online profiling report.
	KindProfile
	// KindSchedule carries the federator's signed freeze/offload decision.
	KindSchedule
	// KindOffload transfers a frozen model from a weak to a strong client.
	KindOffload
	// KindUpdate is a client's trained model update for aggregation.
	KindUpdate
	// KindOffloadResult returns the feature section a strong client
	// trained on behalf of a weak client.
	KindOffloadResult
	// KindSimilarity is a client's sealed class-distribution submission
	// for the enclave, sent before training starts.
	KindSimilarity
	// KindFault is a membership/liveness notification delivered to the
	// federator when a node crashes or rejoins. It is emitted by the fault
	// layer (internal/chaos), standing in for the failure detector a
	// production federation would run; it never crosses the wire.
	KindFault
	// KindControl carries job-federation control-plane traffic between a
	// control daemon and its worker daemons (internal/rpc control payloads,
	// internal/fed): registration, leases, heartbeats, results, cancels.
	// It never appears inside an FL run.
	KindControl
)

// FaultPayload is the body of a KindFault notification.
type FaultPayload struct {
	// Node is the client the notification is about.
	Node NodeID
	// Down is true for a crash and false for a rejoin.
	Down bool
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTrain:
		return "train"
	case KindProfile:
		return "profile"
	case KindSchedule:
		return "schedule"
	case KindOffload:
		return "offload"
	case KindUpdate:
		return "update"
	case KindOffloadResult:
		return "offload-result"
	case KindSimilarity:
		return "similarity"
	case KindFault:
		return "fault"
	case KindControl:
		return "control"
	default:
		return "unknown"
	}
}

// SpanContext is the compact causal context a message carries across the
// wire: which trace (run) it belongs to, which span the message itself is,
// and which span was being handled when it was sent. It is stamped by the
// observability tracer (internal/obs) at Env.Send and read back at
// delivery; actors never set or inspect it, and a zero context means the
// run is untraced. Sent is the sender's clock at the send, so the receiver
// can close the span without any shared lookup state — both transports
// share one epoch per run (virtual time on sim, the exchanged epoch on
// rpc), making End-Sent the link latency the transport actually charged.
type SpanContext struct {
	// Trace identifies the run (the tracer derives it from the seed).
	Trace uint64
	// Span is this message's span ID, unique within the trace.
	Span uint64
	// Parent is the span of the message (or timer chain) that caused this
	// send; 0 marks a root span (e.g. the federator's initial dispatch).
	Parent uint64
	// Sent is the sender's Env.Now() at the send.
	Sent time.Duration
}

// Traced reports whether the context was stamped by a tracer.
func (c SpanContext) Traced() bool { return c.Span != 0 }

// Message is a protocol envelope. Size is the payload's true on-the-wire
// size in bytes — for codec-encoded model payloads (internal/codec) the
// encoded byte count, not the raw snapshot size — and drives the bandwidth
// component of transfer delay on simulated links. Span is observability
// metadata only: it never contributes to Size, delay, or actor behavior.
type Message struct {
	From    NodeID
	To      NodeID
	Round   int
	Kind    Kind
	Size    int
	Span    SpanContext
	Payload any
}

// Env is the execution environment handed to an actor: a clock, a way to
// send messages, and a way to consume (simulated or real) compute time.
type Env interface {
	// Now returns the current time since the experiment epoch.
	Now() time.Duration
	// Send delivers a message asynchronously and reliably.
	Send(msg Message)
	// After schedules fn on this actor after d of compute/wait time.
	// It returns a handle that can cancel the callback if it has not fired.
	After(d time.Duration, fn func()) Timer
}

// Timer is a cancellable pending callback.
type Timer interface {
	// Cancel prevents the callback from firing; it is a no-op after the
	// callback ran.
	Cancel()
}

// Handler is implemented by actors (federator, clients).
type Handler interface {
	// OnMessage processes one delivered message. Implementations must not
	// block; long work is represented by Env.After.
	OnMessage(env Env, msg Message)
}

// Transport binds a set of actors into one communicating cluster. It is the
// deployment-facing contract (see DESIGN.md §6): fl.Deployment registers
// every node, seals membership, starts the federator via Invoke, and pumps
// Drive until the run signals completion. Implementations: sim.Network
// (virtual time, deterministic) and rpc.Network (real TCP on loopback).
type Transport interface {
	// Register attaches handler h as node id. Every node must be registered
	// (or belong to a range, see RangeRegistry) before Seal; registering
	// after Seal is a programming error.
	Register(id NodeID, h Handler)
	// Seal finalizes membership: after Seal every registered node can reach
	// every other, and Env, Invoke, and Drive become usable.
	Seal() error
	// Env returns the execution environment of a sealed node.
	Env(id NodeID) Env
	// Invoke schedules fn in id's actor context, serialized with its
	// message handling: wall-clock transports run it immediately under the
	// node's handler lock, virtual-time transports enqueue it at the
	// current virtual time to run when Drive starts.
	Invoke(id NodeID, fn func(Env))
	// Drive delivers messages until done is closed or — for self-draining
	// virtual-time transports — the event queue empties. A non-nil error
	// means the run cannot complete (e.g. a wall-clock timeout); whether it
	// did complete is the caller's check (done closed, results recorded).
	Drive(done <-chan struct{}) error
	// Close releases transport resources (listeners, connections). It is
	// safe to call after a failed Seal or Drive.
	Close() error
}

// PayloadRegistry is implemented by transports that serialize message
// payloads (gob over TCP) and therefore must learn every concrete payload
// type before the first send. fl.Deployment feeds fl.RegisterPayloads
// through it, so callers never hand-enumerate the protocol types.
type PayloadRegistry interface {
	RegisterPayload(v any)
}

// RangeRegistry is implemented by transports that register a contiguous ID
// range by a factory instead of one Register call per node: a node of the
// range is activated — f builds its handler — the first time anything
// addresses it, so the nodes a run never touches cost nothing
// (SNIPPETS.md's dvactor registers an actor type the same way). f must be
// a pure function of the ID, and ranges must not overlap each other. Only
// a transport that routes on one goroutine activates lazily; a concurrent
// one lacks the interface, and RegisterRange expands the range on it.
type RangeRegistry interface {
	// RegisterRange registers every ID in [lo, hi).
	RegisterRange(lo, hi NodeID, f func(NodeID) Handler)
}

// RegisterRange registers [lo, hi) on t by factory: lazily when t is a
// RangeRegistry, and otherwise eagerly, one Register call per ID in
// ascending order (rpc.Network, a foreign decorator).
func RegisterRange(t Transport, lo, hi NodeID, f func(NodeID) Handler) {
	if reg, ok := t.(RangeRegistry); ok {
		reg.RegisterRange(lo, hi, f)
		return
	}
	for id := lo; id < hi; id++ {
		t.Register(id, f(id))
	}
}

// Ranges is the bookkeeping of a RangeRegistry: the registered ranges and
// their factories.
type Ranges struct {
	rs []idRange
}

type idRange struct {
	lo, hi NodeID
	f      func(NodeID) Handler
}

// Add records [lo, hi) with its factory.
func (r *Ranges) Add(lo, hi NodeID, f func(NodeID) Handler) {
	r.rs = append(r.rs, idRange{lo, hi, f})
}

// Factory returns the factory of the range that holds id, or nil.
func (r *Ranges) Factory(id NodeID) func(NodeID) Handler {
	for _, x := range r.rs {
		if x.lo <= id && id < x.hi {
			return x.f
		}
	}
	return nil
}

// Each calls fn with every ID of every range, range by range in the order
// they were added, each in ascending order.
func (r *Ranges) Each(fn func(NodeID)) {
	for _, x := range r.rs {
		for id := x.lo; id < x.hi; id++ {
			fn(id)
		}
	}
}
