// Package sim provides a deterministic discrete-event simulation kernel and
// a simulated network transport. The federated-learning experiments run on
// virtual time: computation and message transfers schedule future events,
// and the kernel advances the clock from event to event. This reproduces
// the paper's round timelines (stragglers, offload overlap, deadlines)
// deterministically and orders of magnitude faster than wall-clock runs.
package sim

import (
	"container/heap"
	"time"
)

// event is a scheduled callback.
type event struct {
	at        time.Duration
	seq       uint64 // tie-breaker for deterministic FIFO ordering
	fn        func()
	cancelled bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*event)
	if !ok {
		panic("sim: pushed non-event")
	}
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Kernel is a single-threaded discrete-event scheduler.
type Kernel struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
}

// NewKernel returns a kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Handle cancels a scheduled event.
type Handle struct {
	ev *event
}

// Cancel implements comm.Timer semantics for kernel events.
func (h Handle) Cancel() {
	if h.ev != nil {
		h.ev.cancelled = true
	}
}

// Schedule runs fn after delay d (>= 0) of virtual time.
func (k *Kernel) Schedule(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	ev := &event{at: k.now + d, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.queue, ev)
	return Handle{ev: ev}
}

// Step executes the next pending event and returns false when the queue is
// drained.
func (k *Kernel) Step() bool {
	for k.queue.Len() > 0 {
		popped := heap.Pop(&k.queue)
		ev, ok := popped.(*event)
		if !ok {
			panic("sim: queue held non-event")
		}
		if ev.cancelled {
			continue
		}
		k.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline; the clock never
// exceeds the deadline.
func (k *Kernel) RunUntil(deadline time.Duration) {
	for k.queue.Len() > 0 {
		// Peek.
		next := k.queue[0]
		if next.cancelled {
			heap.Pop(&k.queue)
			continue
		}
		if next.at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}
