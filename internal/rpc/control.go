// Control-plane wire protocol for multi-daemon job federation (DESIGN.md
// §13): the message shapes a worker daemon and a control daemon exchange
// over the ordinary Peer transport. Work distribution is pull-based: a
// worker's heartbeats and results each say how many slots it has free, and
// the control never pushes a job a worker did not ask for. Every payload
// that references a job carries the lease sequence number the control
// issued, so results from expired leases are detectable and droppable.
//
// Each payload has a fixed layout on the wire (wire.go) under a tag of its
// own, so none goes through gob or needs registering. Job specs, records
// and round events travel as opaque JSON bytes: the rpc layer stays
// ignorant of the runner's schema. A control and a worker of different
// builds do not talk at all: the connection's preface refuses them.
package rpc

import "aergia/internal/comm"

// ControlID is the well-known node identity of the control daemon on the
// federation network, far outside both the client ID space (0..n-1) and
// the edge-aggregator space (-2-k).
const ControlID comm.NodeID = -100

// Lease is one unit of granted work: the job's content-hash ID, the
// fencing sequence number of this particular grant, and the job spec as
// canonical JSON ({"experiment":..., "options":...}).
type Lease struct {
	ID   string
	Seq  uint64
	Spec []byte
}

// LeaseGrantPayload delivers one or more leases against the worker's
// standing request, whenever the control has them. It is empty only as the
// admission ack to a heartbeat from a worker the control did not know; an
// unanswered request means "parked", not "lost".
type LeaseGrantPayload struct {
	Leases []Lease
}

// HeartbeatPayload is the worker's beacon, sent when it attaches and on
// every heartbeat tick. It is liveness: a worker that misses the control's
// configured number of consecutive heartbeats is declared dead and its
// leases are requeued. It carries the worker's identity, so a control that
// does not know the sender (it is attaching, the control restarted, or the
// control declared it dead after a transient send failure) admits it in
// place and answers with a grant, empty or not, as its ack. And it is a
// lease request: Want is how many slots the worker has free. What the
// queue can supply is granted at once; the rest stays parked on the
// control as the worker's credit and is granted the moment a job arrives.
// A request replaces the one before it, never adds to it, and the control
// never lets a worker hold more leases than its Slots whatever Want says.
type HeartbeatPayload struct {
	// Active is not on the wire, which reads it back nil. Only bench/
	// still sets it; ROADMAP item 8 drops that, and then the field goes.
	Active []string
	Name   string
	Addr   string
	Slots  int
	Want   int
}

// ResultPayload reports one finished lease. Status is the runner's
// terminal status string ("done", "failed", "canceled"); Result is the
// experiment's canonical record JSON for done jobs and empty otherwise.
// Seq must echo the lease's sequence number — a stale Seq means the lease
// expired (the worker was declared dead and the job requeued) and the
// result is dropped. Want is the worker's lease request, as a heartbeat's,
// read with the slot this result frees already free.
type ResultPayload struct {
	ID        string
	Seq       uint64
	Status    string
	ElapsedNS int64
	Error     string
	Result    []byte
	Want      int
}

// EventPayload forwards one live round-progress event (obs.RoundEvent as
// JSON) from the worker executing a job to the control daemon, which
// republishes it into the job's SSE stream. Best-effort observability:
// loss is acceptable, ordering per job follows the connection.
type EventPayload struct {
	ID    string
	Event []byte
}

// CancelPayload tells the owning worker to abort a leased job; the worker
// cancels the job's context and reports a canceled ResultPayload.
type CancelPayload struct {
	ID string
}

// ByePayload is a graceful goodbye. Worker → control: the worker is
// shutting down, requeue its leases now rather than after the heartbeat
// timeout. Control → worker: the control no longer recognizes the worker
// (typically after a control restart) and it should exit and rejoin.
type ByePayload struct {
	Reason string
}
