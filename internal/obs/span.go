package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"aergia/internal/comm"
)

// Span is one completed message hop of a traced run: opened when a node
// handed the message to Env.Send, closed when the receiver's handler got
// it. Start and End read the run's own clock — virtual time on the
// simulator, wall time since the shared epoch over TCP — so End-Start is
// the transit latency the transport actually charged. Parent links the
// span to the span being handled when the send happened (0 = root), which
// is what chains dispatch→train→update/offload→aggregate into one causal
// trace.
type Span struct {
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	From   comm.NodeID   `json:"from"`
	To     comm.NodeID   `json:"to"`
	Kind   comm.Kind     `json:"kind"`
	Round  int           `json:"round"`
	Size   int           `json:"size"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Latency is the transit time the span covers.
func (s Span) Latency() time.Duration { return s.End - s.Start }

// SpanSink receives completed spans. Implementations must be safe for
// concurrent use (wall-clock transports deliver concurrently) and must not
// block: sinks run inside the delivery path.
type SpanSink interface {
	OnSpan(Span)
}

// NodeRole classifies a node ID for span link labels: the federator root,
// an edge aggregator (hier.EdgeID, IDs below the federator), or a client.
func NodeRole(id comm.NodeID) string {
	switch {
	case id == comm.FederatorID:
		return "fed"
	case id < comm.FederatorID:
		return "edge"
	default:
		return "client"
	}
}

// linkLabel names the link class of a hop, e.g. "fed>client" for a
// dispatch or "client>edge" for a tiered uplink.
func linkLabel(from, to comm.NodeID) string {
	return NodeRole(from) + ">" + NodeRole(to)
}

// Tracer stamps a comm.SpanContext on every message a node sends and closes
// the span at delivery, fanning completed spans out to its sinks, the
// flight recorder, and the per-kind/per-link latency histograms. Add it
// above the metrics and fault layers and below hier.Route (DESIGN.md §15),
// so spans record the rewritten tier links.
//
// Causality: the tracer tracks the span currently being handled on each
// node (deliveries set it; After callbacks capture and restore it at
// schedule time), and every send parents its fresh span on that current
// span. Node handlers and their timers are serialized by both transports
// — the sim kernel is single-threaded, rpc holds a per-peer handler lock —
// so the current-span field needs no atomics of its own.
//
// Tracing is passive: it consumes no virtual time, draws no randomness,
// and never touches Message.Size, so a traced run is bit-identical to an
// untraced one (the golden parity tests pin this).
type Tracer struct {
	trace  uint64
	sinks  []SpanSink
	reg    *Registry
	flight *Flight
	next   atomic.Uint64

	latMu sync.Mutex
	latV  *HistogramVec
	lat   map[[2]string]*Histogram
}

// NewTracer returns a tracer for one run. trace identifies the run (the fl
// engines pass the seed); sinks receive every completed span. Latency
// histograms register on the Default registry and span/fault events land
// in the default flight recorder.
func NewTracer(trace uint64, sinks ...SpanSink) *Tracer {
	return newTracerIn(Default, FlightDefault, trace, sinks...)
}

// newTracerIn is the dependency-injected constructor the tests use.
func newTracerIn(reg *Registry, flight *Flight, trace uint64, sinks ...SpanSink) *Tracer {
	t := &Tracer{trace: trace, sinks: sinks, reg: reg, flight: flight,
		lat: make(map[[2]string]*Histogram)}
	t.latV = reg.HistogramVec("aergia_span_latency_seconds",
		"Message transit latency from Env.Send to handler delivery, by payload kind and link class (run-clock seconds: virtual on sim, wall on TCP).",
		nil, "kind", "link")
	return t
}

// Wrap adds span propagation above inner (see comm.Interceptor.On).
func (t *Tracer) Wrap(inner comm.Transport) comm.Transport {
	if t == nil {
		return inner
	}
	st := &spanLayer{t: t}
	return comm.Interceptor{
		State:   func(comm.NodeID) any { return new(uint64) },
		Send:    st.send,
		Deliver: st.deliver,
		After:   st.after,
	}.On(inner)
}

// emit closes a span: flight ring, latency histogram, sinks.
func (t *Tracer) emit(s Span) {
	t.flight.RecordSpan(s)
	t.latency(s.Kind, linkLabel(s.From, s.To)).Observe(s.Latency().Seconds())
	for _, sink := range t.sinks {
		sink.OnSpan(s)
	}
}

// latency resolves the histogram child for one (kind, link) pair, cached
// so steady-state emission does a map read under a short lock instead of
// the registry's family resolution.
func (t *Tracer) latency(kind comm.Kind, link string) *Histogram {
	key := [2]string{kind.String(), link}
	t.latMu.Lock()
	defer t.latMu.Unlock()
	h, ok := t.lat[key]
	if !ok {
		h = t.latV.With(key[0], key[1])
		t.lat[key] = h
	}
	return h
}

// spanLayer is a Tracer on one stack. Its state on a node (a *uint64) is
// the span currently being handled there, 0 outside any span; it is only
// touched from the node's serialized actor context (see Tracer), so plain
// reads and writes suffice.
type spanLayer struct {
	t *Tracer
}

// cur is the node's current span.
func cur(l comm.Layer) *uint64 { return l.State().(*uint64) }

// send stamps a fresh span parented on the node's current one.
func (s *spanLayer) send(l comm.Layer, msg comm.Message) {
	msg.Span = comm.SpanContext{
		Trace:  s.t.trace,
		Span:   s.t.next.Add(1),
		Parent: *cur(l),
		Sent:   l.Now(),
	}
	l.Send(msg)
}

// after captures the current span at schedule time and restores it while
// fn runs, so work an actor defers (training completion, deadlines) still
// parents its sends on the message that scheduled it. The inner transport
// serializes fn with the node's handler, so the save/restore cannot
// interleave with a delivery.
func (s *spanLayer) after(l comm.Layer, d time.Duration, fn func()) comm.Timer {
	c := cur(l)
	parent := *c
	return l.After(d, func() {
		saved := *c
		*c = parent
		fn()
		*c = saved
	})
}

// deliver closes the inbound span and scopes the node's current span to
// everything above this layer.
func (s *spanLayer) deliver(l comm.Layer, msg comm.Message) {
	if msg.Span.Traced() {
		s.t.emit(Span{
			Trace:  msg.Span.Trace,
			ID:     msg.Span.Span,
			Parent: msg.Span.Parent,
			From:   msg.From,
			To:     msg.To,
			Kind:   msg.Kind,
			Round:  msg.Round,
			Size:   msg.Size,
			Start:  msg.Span.Sent,
			End:    l.Now(),
		})
	} else if msg.Kind == comm.KindFault {
		// Fault notices are injected by the fault layer above its own hooks
		// — no Send, no span — but they are exactly what a post-mortem wants
		// in the ring.
		if fp, ok := msg.Payload.(comm.FaultPayload); ok {
			s.t.flight.RecordFault(fp.Node, fp.Down, l.Now())
		}
	}
	c := cur(l)
	saved := *c
	*c = msg.Span.Span
	l.Deliver(msg)
	*c = saved
}

// ---------------------------------------------------------------------------
// Span collection.

// SpanLog is a SpanSink that retains every span of a run — the backing
// store of `aergia -spans-out` and of the causal assertions in tests.
type SpanLog struct {
	mu    sync.Mutex
	spans []Span
}

// NewSpanLog returns an empty span log.
func NewSpanLog() *SpanLog { return &SpanLog{} }

// OnSpan implements SpanSink.
func (l *SpanLog) OnSpan(s Span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Spans returns a copy of the collected spans in completion order.
func (l *SpanLog) Spans() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	return out
}

// Len returns the number of collected spans.
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// spanJSON is the JSONL shape: Span plus the kind spelled out, so the
// lines read without the comm.Kind enum at hand.
type spanJSON struct {
	Span
	KindName string `json:"kind_name"`
}

// WriteJSONL writes one JSON object per span, in completion order.
func (l *SpanLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for _, s := range l.Spans() {
		if err := enc.Encode(spanJSON{Span: s, KindName: s.Kind.String()}); err != nil {
			return fmt.Errorf("obs: write span: %w", err)
		}
	}
	return nil
}
