package obs

import (
	"testing"
	"time"

	"aergia/internal/comm"
)

func TestRoundStreamReplayAndLive(t *testing.T) {
	s := NewRoundStream()
	s.Publish(RoundEvent{Round: 1, Accuracy: 0.5})
	s.Publish(RoundEvent{Round: 2, Accuracy: 0.6})

	ch, cancel := s.Subscribe(4)
	defer cancel()
	for want := 1; want <= 2; want++ {
		ev := <-ch
		if ev.Round != want {
			t.Fatalf("replayed round = %d, want %d", ev.Round, want)
		}
	}
	s.Publish(RoundEvent{Round: 3, Accuracy: 0.7})
	if ev := <-ch; ev.Round != 3 {
		t.Fatalf("live round = %d, want 3", ev.Round)
	}
	if got := s.Events(); len(got) != 3 {
		t.Fatalf("Events() has %d entries, want 3", len(got))
	}

	s.Close()
	if _, open := <-ch; open {
		t.Fatal("channel should close when the stream closes")
	}
	// Late subscribers still get the full history, already closed.
	late, _ := s.Subscribe(1)
	var n int
	for range late {
		n++
	}
	if n != 3 {
		t.Fatalf("late subscriber replayed %d events, want 3", n)
	}
}

// TestRoundStreamForward: a forwarded stream replays what it announced
// before Forward into the destination, then relays every later event, and
// a subscriber to the destination sees the relay in order.
func TestRoundStreamForward(t *testing.T) {
	dst := NewRoundStream()
	ch, cancel := dst.Subscribe(8)
	defer cancel()
	a, b := NewRoundStream(), NewRoundStream()
	a.Publish(RoundEvent{Run: 1, Round: 0})
	b.Publish(RoundEvent{Run: 2, Round: 0}) // held until b is forwarded
	a.Forward(dst)
	a.Publish(RoundEvent{Run: 1, Round: 1})
	b.Forward(dst)
	b.Publish(RoundEvent{Run: 2, Round: 1})
	want := [][2]int{{1, 0}, {1, 1}, {2, 0}, {2, 1}}
	got := dst.Events()
	if len(got) != len(want) {
		t.Fatalf("destination holds %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if ev := <-ch; int(ev.Run) != w[0] || ev.Round != w[1] || got[i] != ev {
			t.Fatalf("event %d: subscriber read run %d round %d (history %+v), want run %d round %d",
				i, ev.Run, ev.Round, got[i], w[0], w[1])
		}
	}
	var none *RoundStream
	none.Forward(dst) // nil-receiver safe like every method
	a.Forward(nil)    // and a nil destination drops the relay
	a.Publish(RoundEvent{Run: 1, Round: 2})
	if n := len(dst.Events()); n != len(want) {
		t.Fatalf("destination grew to %d events after forwarding stopped", n)
	}
}

func TestRoundStreamStragglerFromSpans(t *testing.T) {
	s := NewRoundStream()
	s.OnSpan(Span{ID: 1, From: comm.FederatorID, To: 2, Kind: comm.KindTrain, Round: 0, End: ms(1)})
	s.OnSpan(Span{ID: 2, Parent: 1, From: 2, To: comm.FederatorID, Kind: comm.KindUpdate, Round: 0, Start: ms(7), End: ms(8)})

	s.Publish(RoundEvent{Round: 0, Straggler: comm.FederatorID})
	evs := s.Events()
	if len(evs) != 1 || evs[0].Straggler != 2 {
		t.Fatalf("straggler = %+v, want client 2", evs)
	}

	// Spans for round 0 were released at publish; a second publish of a
	// later round with no spans keeps the unknown sentinel.
	s.Publish(RoundEvent{Round: 1, Straggler: comm.FederatorID})
	evs = s.Events()
	if evs[1].Straggler != comm.FederatorID {
		t.Fatalf("straggler = %d, want unknown (-1)", evs[1].Straggler)
	}

	// A publisher that already knows the straggler is left alone.
	s.OnSpan(Span{ID: 3, From: comm.FederatorID, To: 4, Kind: comm.KindTrain, Round: 2, End: ms(9)})
	s.Publish(RoundEvent{Round: 2, Straggler: 9})
	if evs := s.Events(); evs[2].Straggler != 9 {
		t.Fatalf("straggler = %d, want publisher's 9", evs[2].Straggler)
	}
}

// TestRoundStreamResolveFixesTheClose: an event resolved at its round's
// close and announced later says what the close saw — a late uplink of that
// round filed in between neither names a straggler the close could not (the
// unknown sentinel stays) nor shows in history before the announce.
func TestRoundStreamResolveFixesTheClose(t *testing.T) {
	s := NewRoundStream()
	s.OnSpan(Span{ID: 1, From: comm.FederatorID, To: 2, Kind: comm.KindTrain, Round: 0, End: ms(1)})
	ev := s.Resolve(RoundEvent{Round: 0, Straggler: comm.FederatorID})
	if ev.Straggler != comm.FederatorID {
		t.Fatalf("straggler at the close = %d, want unknown: only the federator's dispatch had landed", ev.Straggler)
	}
	s.OnSpan(Span{ID: 2, Parent: 1, From: 2, To: comm.FederatorID, Kind: comm.KindUpdate, Round: 0, Start: ms(7), End: ms(8)})
	if n := len(s.Events()); n != 0 {
		t.Fatalf("%d events before the announce", n)
	}
	s.Announce(ev)
	if evs := s.Events(); len(evs) != 1 || evs[0].Straggler != comm.FederatorID {
		t.Fatalf("announced %+v, want the close's unknown straggler", evs)
	}
}

func TestRoundStreamSlowSubscriber(t *testing.T) {
	s := NewRoundStream()
	ch, cancel := s.Subscribe(1)
	defer cancel()
	// Publish more than the buffer without draining: the publisher must not
	// block, and the overflow is dropped rather than queued.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			s.Publish(RoundEvent{Round: i})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if ev := <-ch; ev.Round != 0 {
		t.Fatalf("delivered round = %d, want 0 (first before overflow)", ev.Round)
	}
}

func TestRoundStreamCancel(t *testing.T) {
	s := NewRoundStream()
	ch, cancel := s.Subscribe(1)
	cancel()
	cancel() // idempotent
	if _, open := <-ch; open {
		t.Fatal("cancel should close the channel")
	}
	s.Publish(RoundEvent{Round: 0}) // must not panic on the removed sub
}

func TestRoundStreamNilAndZeroValue(t *testing.T) {
	var s *RoundStream
	s.OnSpan(Span{})
	s.Publish(RoundEvent{})
	s.Close()
	if s.Events() != nil {
		t.Fatal("nil stream should have no events")
	}
	ch, cancel := s.Subscribe(1)
	cancel()
	if _, open := <-ch; open {
		t.Fatal("nil stream subscription should be closed")
	}

	// The zero value works too (lazy map init on both paths).
	var z RoundStream
	z.OnSpan(Span{ID: 1, From: 0, To: comm.FederatorID, Kind: comm.KindUpdate, Round: 0, End: ms(1)})
	z.Publish(RoundEvent{Round: 0, Straggler: comm.FederatorID})
	if evs := z.Events(); len(evs) != 1 || evs[0].Straggler != 0 {
		t.Fatalf("zero-value stream events = %+v", evs)
	}
}

// TestRoundStreamRetentionBounds: span retention cannot grow without bound
// when no publisher prunes (the async engine numbers events by update
// count, not message round).
func TestRoundStreamRetentionBounds(t *testing.T) {
	s := NewRoundStream()
	for r := 0; r < maxStreamRounds+8; r++ {
		s.OnSpan(Span{ID: uint64(r + 1), Round: r, End: ms(r)})
	}
	s.mu.Lock()
	rounds := len(s.spans)
	_, oldestEvicted := s.spans[0]
	s.mu.Unlock()
	if rounds != maxStreamRounds {
		t.Fatalf("retained %d rounds, want cap %d", rounds, maxStreamRounds)
	}
	if oldestEvicted {
		t.Fatal("oldest round should have been evicted")
	}

	// Per-round cap: the flood stops at maxStreamRoundSpan spans.
	flood := NewRoundStream()
	for i := 0; i < maxStreamRoundSpan+10; i++ {
		flood.OnSpan(Span{ID: uint64(i + 1), Round: 0})
	}
	flood.mu.Lock()
	n := len(flood.spans[0])
	flood.mu.Unlock()
	if n != maxStreamRoundSpan {
		t.Fatalf("retained %d spans in one round, want cap %d", n, maxStreamRoundSpan)
	}
}
