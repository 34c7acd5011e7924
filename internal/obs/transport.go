package obs

import (
	"time"

	"aergia/internal/comm"
)

// Comm metric directions.
const (
	// DirSent counts messages as actors hand them to Env.Send — before any
	// fault layer below may drop them.
	DirSent = "sent"
	// DirDelivered counts messages as they reach a handler — after link
	// loss and crashed-node discards, so sent-minus-delivered is the loss
	// the run actually saw.
	DirDelivered = "delivered"
)

// commMetrics is the instrument bundle of one metrics interceptor, with
// children pre-resolved per message kind so the per-message hot path is one
// map read and a handful of atomic adds.
type commMetrics struct {
	msgs   *CounterVec
	bytes  *CounterVec
	handle *HistogramVec
	kinds  map[comm.Kind]kindMetrics
}

// kindMetrics is the children of one message kind.
type kindMetrics struct {
	sentMsgs, sentBytes, delivMsgs, delivBytes *Counter
	handle                                     *Histogram
}

// commKinds is the closed set of protocol message kinds (comm.Kind is an
// enum; KindFault is injected by the fault layer above its own hooks and
// still counts as traffic here).
var commKinds = []comm.Kind{
	comm.KindTrain, comm.KindProfile, comm.KindSchedule, comm.KindOffload,
	comm.KindUpdate, comm.KindOffloadResult, comm.KindSimilarity, comm.KindFault,
}

func newCommMetrics(reg *Registry) *commMetrics {
	m := &commMetrics{
		msgs: reg.CounterVec("aergia_comm_messages_total",
			"Protocol messages by payload kind and direction (sent = handed to the transport, delivered = reached a handler).",
			"kind", "dir"),
		bytes: reg.CounterVec("aergia_comm_bytes_total",
			"On-the-wire payload bytes by kind and direction (encoded sizes, matching the bandwidth ledger).",
			"kind", "dir"),
		handle: reg.HistogramVec("aergia_comm_handle_seconds",
			"Wall-clock handler service time per delivered message, by payload kind.",
			nil, "kind"),
		kinds: make(map[comm.Kind]kindMetrics),
	}
	for _, k := range commKinds {
		m.kinds[k] = m.resolve(k)
	}
	return m
}

// resolve looks the kind's children up in the vecs, registering them.
func (m *commMetrics) resolve(k comm.Kind) kindMetrics {
	name := k.String()
	return kindMetrics{
		sentMsgs:   m.msgs.With(name, DirSent),
		sentBytes:  m.bytes.With(name, DirSent),
		delivMsgs:  m.msgs.With(name, DirDelivered),
		delivBytes: m.bytes.With(name, DirDelivered),
		handle:     m.handle.With(name),
	}
}

// of returns the kind's children; a kind outside commKinds falls back to
// the vecs.
func (m *commMetrics) of(k comm.Kind) kindMetrics {
	if km, ok := m.kinds[k]; ok {
		return km
	}
	return m.resolve(k)
}

func (m *commMetrics) sent(msg comm.Message) {
	km := m.of(msg.Kind)
	km.sentMsgs.Inc()
	km.sentBytes.Add(float64(msg.Size))
}

func (m *commMetrics) delivered(msg comm.Message, service time.Duration) {
	km := m.of(msg.Kind)
	km.delivMsgs.Inc()
	km.delivBytes.Add(float64(msg.Size))
	km.handle.Observe(service.Seconds())
}

// WrapTransport adds passive instrumentation above inner (see
// comm.Interceptor.On): message and byte counters per payload kind and
// direction, and a wall-clock handler-latency histogram per kind that
// covers every layer above this one and the actor. A nil registry returns
// inner unchanged, so observation stays strictly opt-out at the wrap site.
// Add it above the fault layer so sent counts see what actors emitted and
// delivered counts see what survived.
//
// Timing is read with the wall clock only — never the transport's virtual
// clock — and nothing is delayed or reordered, so a wrapped run's virtual
// time and results are bit-identical to an unwrapped one.
func WrapTransport(inner comm.Transport, reg *Registry) comm.Transport {
	if reg == nil {
		return inner
	}
	m := newCommMetrics(reg)
	return comm.Interceptor{
		Send: func(l comm.Layer, msg comm.Message) {
			m.sent(msg)
			l.Send(msg)
		},
		Deliver: func(l comm.Layer, msg comm.Message) {
			start := time.Now()
			l.Deliver(msg)
			m.delivered(msg, time.Since(start))
		},
	}.On(inner)
}
