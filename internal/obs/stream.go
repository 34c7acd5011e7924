package obs

import (
	"sync"
	"time"

	"aergia/internal/comm"
)

// RoundEvent is one live round-progress notification — the SSE payload of
// aergiad's GET /jobs/{id}/events and the unit of RoundStream. Times read
// the run clock (virtual on sim, wall on TCP).
type RoundEvent struct {
	// Run identifies the run; the fl engines use the trace ID (the seed).
	Run uint64 `json:"run"`
	// Round is the round number (or absorbed-update count for async runs).
	Round int `json:"round"`
	// Accuracy is the test accuracy after the round; -1 when the round was
	// not an evaluation round.
	Accuracy float64 `json:"accuracy"`
	// Cohort is the number of clients whose work completed the round.
	Cohort int `json:"cohort"`
	// Duration is the round's length on the run clock.
	Duration time.Duration `json:"duration_ns"`
	// Time is the run clock at the end of the round.
	Time time.Duration `json:"time_ns"`
	// Bytes is the cumulative wire-byte total for the run so far.
	Bytes int64 `json:"bytes"`
	// Straggler is the client the round's critical path bottomed out on,
	// -1 when unknown (the federator itself, ID -1, can never straggle
	// behind its own round). Publishers leave it -1; Resolve (and so
	// Publish) fills it from the span stream.
	Straggler comm.NodeID `json:"straggler"`
	// Wait is how long the federator waited between the first completed
	// update and the end of the round — the straggler tax.
	Wait time.Duration `json:"wait_ns"`
}

// Retention bounds: spans are only held until their round is resolved, but
// a publisher that never comes (async runs number events by update count,
// not message round) must not let the map grow without bound.
const (
	maxStreamRounds    = 64
	maxStreamRoundSpan = 1 << 15
)

// RoundStream fans live RoundEvents out to subscribers and, as a SpanSink,
// retains each round's spans just long enough to name its straggler via
// CriticalPath. The federator resolves an event as it finalizes each round
// and announces it once the round's evaluation is joined; aergiad's SSE
// handler and the runner subscribe. All methods are nil-receiver safe and
// safe for concurrent use.
type RoundStream struct {
	mu      sync.Mutex
	spans   map[int][]Span
	history []RoundEvent
	subs    map[int]chan RoundEvent
	nextSub int
	closed  bool
	fwd     *RoundStream // see Forward
	first   func()       // see OnFirstEvent
}

// NewRoundStream returns an empty stream.
func NewRoundStream() *RoundStream {
	return &RoundStream{
		spans: make(map[int][]Span),
		subs:  make(map[int]chan RoundEvent),
	}
}

// OnSpan implements SpanSink: it files the span under its round for the
// straggler extraction at publish time.
func (s *RoundStream) OnSpan(sp Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.spans == nil {
		s.spans = make(map[int][]Span)
	}
	if len(s.spans[sp.Round]) >= maxStreamRoundSpan {
		return
	}
	if _, ok := s.spans[sp.Round]; !ok && len(s.spans) >= maxStreamRounds {
		// Evict the oldest retained round rather than grow: a publisher
		// that prunes by round number never gets here.
		oldest := sp.Round
		for r := range s.spans {
			if r < oldest {
				oldest = r
			}
		}
		delete(s.spans, oldest)
	}
	s.spans[sp.Round] = append(s.spans[sp.Round], sp)
}

// Publish completes a round: Resolve, then Announce.
func (s *RoundStream) Publish(ev RoundEvent) { s.Announce(s.Resolve(ev)) }

// Resolve fixes what the spans say about a round as it closes: it fills
// Straggler from the retained spans when the publisher left it -1 and
// releases spans up to that round (a closed stream retains none). A
// publisher that announces later than it closes (the fl federators join an
// evaluation first) resolves at the close, so later spans change nothing.
func (s *RoundStream) Resolve(ev RoundEvent) RoundEvent {
	if s == nil {
		return ev
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Straggler == comm.FederatorID {
		if chain, ok := CriticalPath(s.spans[ev.Round], ev.Round); ok {
			ev.Straggler = chain.Straggler
		}
	}
	for r := range s.spans {
		if r <= ev.Round {
			delete(s.spans, r)
		}
	}
	return ev
}

// Announce records a resolved event for late subscribers and fans it out
// without blocking (a slow subscriber misses events rather than stalling
// the federator).
func (s *RoundStream) Announce(ev RoundEvent) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.history = append(s.history, ev)
	if first := s.first; first != nil {
		s.first = nil
		first()
	}
	for _, ch := range s.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	s.fwd.Announce(ev)
}

// Forward relays s into dst: it announces on dst every event s has
// announced so far, in order, and from then on every event as s announces
// it. Unlike a subscriber, dst misses nothing. An experiment that runs its
// FL runs side by side gives each a private stream and forwards run k's
// once runs 0…k−1 have finished, so the job's stream sees the serial
// order. dst must not forward back into s.
func (s *RoundStream) Forward(dst *RoundStream) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ev := range s.history {
		dst.Announce(ev)
	}
	s.fwd = dst
}

// OnFirstEvent has fn called once, as s announces its next event, so that
// a consumer of a stream that may publish nothing subscribes only once it
// does. fn runs with s locked: it must neither block nor call s, but what
// it starts may Subscribe, whose replay then misses nothing. A closed
// stream announces nothing, so once Close has returned fn is either done
// or never called.
func (s *RoundStream) OnFirstEvent(fn func()) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.first = fn
}

// Events returns a copy of everything published so far.
func (s *RoundStream) Events() []RoundEvent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RoundEvent, len(s.history))
	copy(out, s.history)
	return out
}

// Subscribe returns a channel that first replays every event published so
// far and then receives live events, plus a cancel function. The channel
// closes when the stream closes (or on cancel): channel exhaustion means
// the run is over. buf is extra live-event capacity beyond the replay.
func (s *RoundStream) Subscribe(buf int) (<-chan RoundEvent, func()) {
	if s == nil {
		ch := make(chan RoundEvent)
		close(ch)
		return ch, func() {}
	}
	if buf < 1 {
		buf = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan RoundEvent, len(s.history)+buf)
	for _, ev := range s.history {
		ch <- ev
	}
	if s.closed {
		close(ch)
		return ch, func() {}
	}
	if s.subs == nil {
		s.subs = make(map[int]chan RoundEvent)
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if c, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(c)
		}
	}
	return ch, cancel
}

// Close ends the stream: subscriber channels close after draining and
// further publishes and spans are dropped. History stays readable, and
// late Subscribe calls still replay it into an already-closed channel.
func (s *RoundStream) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
	s.spans = nil
}

// Empty reports whether nothing was ever announced on the stream.
func (s *RoundStream) Empty() bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.history) == 0
}
