// Package fed turns aergiad into a multi-node job federation: a control
// daemon owns the job queue, the store, and the HTTP API, while worker
// daemons register over HTTP, pull leases over the rpc transport, execute
// experiments locally, and stream results and live round events back (see
// DESIGN.md §13).
//
// The division of labor with internal/runner is strict: the runner owns
// every scheduling decision (lease fencing, requeue, cancellation state),
// this package only moves messages. Work distribution is pull-based — a
// worker's heartbeats (the first attaches it) and results each say how
// many slots it has free, and the control never leases it more than that.
// A request the queue cannot satisfy stays parked on the control as the
// worker's credit and is spent the moment the runner reports a job
// entering an empty queue, so an idle fleet starts a job when it arrives.
// The heartbeat is liveness — a worker silent for Heartbeat×Misses has its
// leases requeued at the head of the queue, and a late result from it is
// fenced off by the lease sequence number — and, because every beat
// carries the request, the one fallback for a credit the control has lost.
package fed
