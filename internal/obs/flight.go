package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"aergia/internal/comm"
)

// flightSlots is the ring capacity; a power of two so slot selection is a
// mask. 4096 recent events cover several rounds of even a large cohort.
const flightSlots = 1 << 12

// FlightDefault is the process-wide flight recorder. Tracers record into it
// unconditionally, the runner dumps it on job panics, aergiad serves it at
// GET /debug/flight, and both binaries dump it on SIGQUIT.
var FlightDefault = &Flight{}

// Event classes in the flight ring.
const (
	flightSpan uint64 = iota + 1
	flightFault
	flightPanic
)

// flightSlot is one ring entry. Every field is atomic so writers never
// block and a torn concurrent read is detectable instead of corrupting:
// seq follows the seqlock protocol — a writer with ticket t claims the slot
// by swapping its even seq for the odd value 2t-1, writes the fields, then
// publishes 2t. Tickets t and t+flightSlots share a slot, so the claim is
// what makes a slot single-writer: a writer that finds the slot claimed, or
// already published by a later ticket, drops its event instead of writing
// over (or under) the other's fields. Readers discard a slot whose seq is
// odd, zero, or changed across the field reads.
type flightSlot struct {
	seq    atomic.Uint64
	class  atomic.Uint64
	trace  atomic.Uint64
	id     atomic.Uint64
	parent atomic.Uint64
	from   atomic.Int64
	to     atomic.Int64
	kind   atomic.Int64
	round  atomic.Int64
	size   atomic.Int64
	start  atomic.Int64
	end    atomic.Int64
	down   atomic.Uint64
}

// Flight is a fixed-size lock-free ring of recent observability events:
// completed spans, fault notices, and panic markers. Like the metrics
// registry it is always on and allocation-free in steady state — recording
// is a ticket fetch plus a handful of atomic stores into preallocated
// slots — so it can stay enabled on a 100k-client hier run and still hold
// the last moments before a wedge or crash. The zero value is ready to use;
// nil receivers no-op.
type Flight struct {
	head  atomic.Uint64 // tickets issued; ticket t lives in slot (t-1)&mask
	slots [flightSlots]flightSlot
}

// FlightEvent is one decoded ring entry.
type FlightEvent struct {
	// Seq is the global event ticket (1-based, monotonically increasing);
	// gaps in a snapshot mean the ring wrapped past older events.
	Seq   uint64 `json:"seq"`
	Class string `json:"class"` // "span", "fault", or "panic"

	// Span fields (class "span"); Trace/ID/Parent mirror obs.Span.
	Trace  uint64        `json:"trace,omitempty"`
	ID     uint64        `json:"id,omitempty"`
	Parent uint64        `json:"parent,omitempty"`
	From   comm.NodeID   `json:"from"`
	To     comm.NodeID   `json:"to"`
	Kind   comm.Kind     `json:"kind,omitempty"`
	Round  int           `json:"round"`
	Size   int           `json:"size,omitempty"`
	Start  time.Duration `json:"start_ns,omitempty"`
	End    time.Duration `json:"end_ns"`

	// Down is set on fault events: true for a crash, false for a rejoin.
	Down bool `json:"down,omitempty"`
}

// record claims the next ticket's slot and publishes fields through fill.
// The event is dropped when the slot is contended: that takes a writer
// preempted for a whole lap of the ring, and a flight recorder short one
// event beats one that blocks or shows fields of two events as one.
func (f *Flight) record(class uint64, fill func(*flightSlot)) {
	if f == nil {
		return
	}
	t := f.head.Add(1)
	s := &f.slots[(t-1)&(flightSlots-1)]
	cur := s.seq.Load()
	if cur%2 == 1 || cur >= 2*t || !s.seq.CompareAndSwap(cur, 2*t-1) {
		return
	}
	s.class.Store(class)
	fill(s)
	s.seq.Store(2 * t)
}

// RecordSpan adds a completed span to the ring.
func (f *Flight) RecordSpan(sp Span) {
	f.record(flightSpan, func(s *flightSlot) {
		s.trace.Store(sp.Trace)
		s.id.Store(sp.ID)
		s.parent.Store(sp.Parent)
		s.from.Store(int64(sp.From))
		s.to.Store(int64(sp.To))
		s.kind.Store(int64(sp.Kind))
		s.round.Store(int64(sp.Round))
		s.size.Store(int64(sp.Size))
		s.start.Store(int64(sp.Start))
		s.end.Store(int64(sp.End))
		s.down.Store(0)
	})
}

// RecordFault adds a crash/rejoin notice for node at run-clock time now.
func (f *Flight) RecordFault(node comm.NodeID, down bool, now time.Duration) {
	f.record(flightFault, func(s *flightSlot) {
		s.trace.Store(0)
		s.id.Store(0)
		s.parent.Store(0)
		s.from.Store(int64(node))
		s.to.Store(int64(comm.FederatorID))
		s.kind.Store(int64(comm.KindFault))
		s.round.Store(0)
		s.size.Store(0)
		s.start.Store(0)
		s.end.Store(int64(now))
		var d uint64
		if down {
			d = 1
		}
		s.down.Store(d)
	})
}

// RecordPanic adds a panic marker. The panic value itself is for the
// recovering caller to log; the ring keeps the position of the crash in
// the event stream.
func (f *Flight) RecordPanic() {
	f.record(flightPanic, func(s *flightSlot) {
		s.trace.Store(0)
		s.id.Store(0)
		s.parent.Store(0)
		s.from.Store(0)
		s.to.Store(0)
		s.kind.Store(0)
		s.round.Store(0)
		s.size.Store(0)
		s.start.Store(0)
		s.end.Store(0)
		s.down.Store(0)
	})
}

// Len returns the number of events currently retrievable (capped at the
// ring size).
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	if n := f.head.Load(); n < flightSlots {
		return int(n)
	}
	return flightSlots
}

// Snapshot decodes the ring's current contents, oldest first. Slots a
// writer is mid-flight on (or that changed underneath the read) are
// skipped, so a snapshot taken during a live run is consistent, just
// possibly one event short.
func (f *Flight) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, flightSlots)
	for i := range f.slots {
		s := &f.slots[i]
		seq1 := s.seq.Load()
		if seq1 == 0 || seq1%2 == 1 {
			continue
		}
		ev := FlightEvent{
			Seq:    seq1 / 2,
			Trace:  s.trace.Load(),
			ID:     s.id.Load(),
			Parent: s.parent.Load(),
			From:   comm.NodeID(s.from.Load()),
			To:     comm.NodeID(s.to.Load()),
			Kind:   comm.Kind(s.kind.Load()),
			Round:  int(s.round.Load()),
			Size:   int(s.size.Load()),
			Start:  time.Duration(s.start.Load()),
			End:    time.Duration(s.end.Load()),
			Down:   s.down.Load() == 1,
		}
		switch s.class.Load() {
		case flightSpan:
			ev.Class = "span"
		case flightFault:
			ev.Class = "fault"
		case flightPanic:
			ev.Class = "panic"
		default:
			continue
		}
		if s.seq.Load() != seq1 {
			continue // torn: a writer reused the slot mid-read
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump writes the ring human-readably, oldest event first — the post-mortem
// format used on panic and SIGQUIT.
func (f *Flight) Dump(w io.Writer) {
	events := f.Snapshot()
	fmt.Fprintf(w, "flight recorder: %d recent events\n", len(events))
	for _, ev := range events {
		switch ev.Class {
		case "span":
			fmt.Fprintf(w, "  #%d span %s %d->%d round %d trace %d id %d parent %d %v..%v (%v)\n",
				ev.Seq, ev.Kind, ev.From, ev.To, ev.Round, ev.Trace, ev.ID, ev.Parent,
				ev.Start, ev.End, ev.End-ev.Start)
		case "fault":
			verb := "rejoined"
			if ev.Down {
				verb = "crashed"
			}
			fmt.Fprintf(w, "  #%d fault node %d %s at %v\n", ev.Seq, ev.From, verb, ev.End)
		case "panic":
			fmt.Fprintf(w, "  #%d panic\n", ev.Seq)
		}
	}
}
