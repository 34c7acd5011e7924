package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecordAndSnapshot(t *testing.T) {
	f := &Flight{}
	f.RecordSpan(Span{Trace: 7, ID: 1, From: -1, To: 0, Kind: 1, Round: 2,
		Size: 64, Start: time.Millisecond, End: 3 * time.Millisecond})
	f.RecordFault(4, true, 5*time.Millisecond)
	f.RecordPanic()

	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	events := f.Snapshot()
	if len(events) != 3 {
		t.Fatalf("snapshot has %d events, want 3", len(events))
	}
	for i, want := range []string{"span", "fault", "panic"} {
		if events[i].Class != want || events[i].Seq != uint64(i+1) {
			t.Fatalf("event %d = %+v, want class %q seq %d", i, events[i], want, i+1)
		}
	}
	sp := events[0]
	if sp.Trace != 7 || sp.ID != 1 || sp.From != -1 || sp.To != 0 ||
		sp.Round != 2 || sp.Size != 64 || sp.End-sp.Start != 2*time.Millisecond {
		t.Fatalf("span event fields wrong: %+v", sp)
	}
	if flt := events[1]; flt.From != 4 || !flt.Down || flt.End != 5*time.Millisecond {
		t.Fatalf("fault event fields wrong: %+v", flt)
	}

	var buf bytes.Buffer
	f.Dump(&buf)
	out := buf.String()
	for _, want := range []string{"3 recent events", "span", "node 4 crashed", "panic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestFlightWraparound(t *testing.T) {
	f := &Flight{}
	const extra = 10
	for i := 0; i < flightSlots+extra; i++ {
		f.RecordSpan(Span{ID: uint64(i + 1)})
	}
	if f.Len() != flightSlots {
		t.Fatalf("Len = %d, want %d", f.Len(), flightSlots)
	}
	events := f.Snapshot()
	if len(events) != flightSlots {
		t.Fatalf("snapshot has %d events, want %d", len(events), flightSlots)
	}
	// The oldest extra events were overwritten: the snapshot holds exactly
	// tickets extra+1 .. flightSlots+extra, in order.
	for i, ev := range events {
		if want := uint64(extra + 1 + i); ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	f.RecordSpan(Span{})
	f.RecordFault(0, true, 0)
	f.RecordPanic()
	if f.Len() != 0 || f.Snapshot() != nil {
		t.Fatal("nil flight should be inert")
	}
	f.Dump(&bytes.Buffer{})
}

// TestFlightZeroAllocRecord pins the always-on contract: recording into the
// ring allocates nothing in steady state.
func TestFlightZeroAllocRecord(t *testing.T) {
	f := &Flight{}
	sp := Span{Trace: 1, ID: 2, Parent: 1, From: 0, To: -1, Kind: 5,
		Round: 3, Size: 128, Start: 1, End: 2}
	if avg := testing.AllocsPerRun(1000, func() { f.RecordSpan(sp) }); avg != 0 {
		t.Fatalf("RecordSpan allocates %v per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { f.RecordFault(3, true, 7) }); avg != 0 {
		t.Fatalf("RecordFault allocates %v per call, want 0", avg)
	}
}

// TestFlightConcurrent hammers writers against snapshot readers under the
// race detector. Writers store the same sentinel in every field of a span
// so a torn slot that slipped through the seqlock would be visible as a
// field mismatch.
func TestFlightConcurrent(t *testing.T) {
	f := &Flight{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				v := uint64(w*5000 + i + 1)
				f.RecordSpan(Span{Trace: v, ID: v, Parent: v, Round: int(v)})
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				events := f.Snapshot()
				var prev uint64
				for _, ev := range events {
					if ev.Seq <= prev {
						t.Errorf("snapshot seqs not increasing: %d after %d", ev.Seq, prev)
						return
					}
					prev = ev.Seq
					if ev.Trace != ev.ID || ev.ID != ev.Parent || int(ev.ID) != ev.Round {
						t.Errorf("torn slot surfaced: %+v", ev)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if f.Len() != flightSlots {
		t.Fatalf("Len = %d, want full ring %d", f.Len(), flightSlots)
	}
}

// TestFlightLappedWriterDoesNotTear forces the interleaving the concurrent
// test only hopes for: a writer is held in the middle of its fill while the
// ring wraps a full lap, so the ticket one lap later lands on its slot. The
// slot is claimed, so the lapping event is dropped and the held writer's
// event comes out whole; without the claim the two writers' fields mixed
// under an even seq.
func TestFlightLappedWriterDoesNotTear(t *testing.T) {
	f := &Flight{}
	half := make(chan struct{})
	resume := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.record(flightSpan, func(s *flightSlot) {
			s.trace.Store(1)
			s.id.Store(1)
			close(half)
			<-resume
			s.parent.Store(1)
			s.round.Store(1)
		})
	}()
	<-half
	for i := 0; i < flightSlots; i++ {
		v := uint64(i + 2) // tickets 2..flightSlots+1; the last shares slot 0
		f.RecordSpan(Span{Trace: v, ID: v, Parent: v, Round: int(v)})
	}
	check := func(when string, wantFirst uint64) {
		t.Helper()
		events := f.Snapshot()
		if len(events) != flightSlots-1+int(2-wantFirst) {
			t.Fatalf("%s: %d events", when, len(events))
		}
		if events[0].Seq != wantFirst {
			t.Fatalf("%s: oldest event is ticket %d, want %d", when, events[0].Seq, wantFirst)
		}
		for _, ev := range events {
			if ev.Trace != ev.ID || ev.ID != ev.Parent || int(ev.ID) != ev.Round || ev.ID != ev.Seq {
				t.Fatalf("%s: torn slot surfaced: %+v", when, ev)
			}
		}
	}
	// Mid-fill the held slot reads as in flight; the lapping event is gone.
	check("writer held", 2)
	close(resume)
	<-done
	check("writer released", 1)
}
