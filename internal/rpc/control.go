// Control-plane wire protocol for multi-daemon job federation (DESIGN.md
// §13): the message shapes a worker daemon and a control daemon exchange
// over the ordinary Peer transport. Work distribution is pull-based — the
// control never pushes a job a worker did not ask for — and every payload
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

// HelloPayload attaches a worker to the control plane after the HTTP join
// bootstrap assigned it a node ID: it announces the worker's own rpc
// listen address (the control cannot send grants without it), its display
// name, and its executor slot count. It is also the worker's first lease
// request, for Slots jobs, and the control answers it with a
// LeaseGrantPayload that doubles as the admission ack.
type HelloPayload struct {
	Name  string
	Addr  string
	Slots int
}

// LeaseRequestPayload tells the control the worker has Want slots free.
// What the queue can supply is granted at once; the rest stays parked on
// the control as the worker's credit and is granted the moment a job
// arrives, with no further message from the worker. A request replaces the
// one before it, never adds to it, and the control never lets a worker
// hold more leases than its Slots whatever Want says. Workers send it after
// each completed job and after every heartbeat while slots are free — the
// latter only so that a credit lost with the control's worker table
// (restart, eviction) costs one heartbeat and not forever.
type LeaseRequestPayload struct {
	Want int
}

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
// answer to a Hello that found the queue empty; an unanswered
// LeaseRequestPayload means "parked", not "lost".
type LeaseGrantPayload struct {
	Leases []Lease
}

// HeartbeatPayload is the worker's liveness beacon, carrying the job IDs
// it currently holds. A worker that misses the control's configured number
// of consecutive heartbeats is declared dead and its leases are requeued.
// Name/Addr/Slots duplicate the Hello so a control that no longer knows
// the sender (it restarted, or it declared the worker dead after a
// transient send failure) can re-admit it in place instead of starving it.
type HeartbeatPayload struct {
	Active []string
	Name   string
	Addr   string
	Slots  int
}

// ResultPayload reports one finished lease. Status is the runner's
// terminal status string ("done", "failed", "canceled"); Result is the
// experiment's canonical record JSON for done jobs and empty otherwise.
// Seq must echo the lease's sequence number — a stale Seq means the lease
// expired (the worker was declared dead and the job requeued) and the
// result is dropped.
type ResultPayload struct {
	ID        string
	Seq       uint64
	Status    string
	ElapsedNS int64
	Error     string
	Result    []byte
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
