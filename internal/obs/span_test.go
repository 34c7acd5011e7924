package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"aergia/internal/comm"
	"aergia/internal/sim"
)

// TestTracerCausalChainOverSim drives a dispatch → deferred train → update
// exchange over the sim transport and asserts the causal chain: the update
// span parents on the dispatch span even though the reply was scheduled
// through env.After, and the latency histograms and flight ring both saw
// the hops.
func TestTracerCausalChainOverSim(t *testing.T) {
	reg := NewRegistry()
	flight := &Flight{}
	log := NewSpanLog()
	tracer := newTracerIn(reg, flight, 42, log)

	kernel := sim.NewKernel()
	link := sim.UniformLink(5*time.Millisecond, 1<<20)
	tr := tracer.Wrap(sim.NewNetwork(kernel, link))

	const client = comm.NodeID(0)
	fed := &sinkHandler{}
	tr.Register(comm.FederatorID, fed)
	tr.Register(client, handlerFunc(func(env comm.Env, msg comm.Message) {
		// Deferring the reply through After is the real actors' shape
		// (training takes virtual time); the update must still parent on
		// the dispatch span that scheduled it.
		env.After(10*time.Millisecond, func() {
			env.Send(comm.Message{From: client, To: comm.FederatorID,
				Kind: comm.KindUpdate, Round: msg.Round, Size: 64})
		})
	}))
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	tr.Invoke(comm.FederatorID, func(env comm.Env) {
		env.Send(comm.Message{From: comm.FederatorID, To: client,
			Kind: comm.KindTrain, Round: 7, Size: 128})
	})
	kernel.Run()

	spans := log.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	dispatch, update := spans[0], spans[1]
	if dispatch.Trace != 42 || dispatch.Kind != comm.KindTrain ||
		dispatch.From != comm.FederatorID || dispatch.To != client ||
		dispatch.Round != 7 || dispatch.Parent != 0 {
		t.Fatalf("dispatch span wrong: %+v", dispatch)
	}
	if update.Parent != dispatch.ID {
		t.Fatalf("update parent = %d, want dispatch id %d", update.Parent, dispatch.ID)
	}
	if update.Trace != 42 || update.Kind != comm.KindUpdate || update.Round != 7 {
		t.Fatalf("update span wrong: %+v", update)
	}
	if dispatch.Latency() <= 0 || update.Latency() <= 0 {
		t.Fatalf("spans carry no transit latency: %+v / %+v", dispatch, update)
	}
	// The update was sent exactly 10ms (virtual) after the dispatch landed.
	if d := update.Start - dispatch.End; d != 10*time.Millisecond {
		t.Fatalf("After offset = %v, want 10ms", d)
	}

	// The chain extractor names the client as the round's straggler.
	chain, ok := CriticalPath(spans, 7)
	if !ok || chain.Straggler != client || len(chain.Spans) != 2 {
		t.Fatalf("critical path = %+v (ok=%v), want 2-span chain stuck on client 0", chain, ok)
	}

	// Latency histograms filed each hop under its kind and link class.
	lat := reg.HistogramVec("aergia_span_latency_seconds", "", nil, "kind", "link")
	if got := lat.With("train", "fed>client").Count(); got != 1 {
		t.Errorf("latency{train,fed>client} count = %d, want 1", got)
	}
	if got := lat.With("update", "client>fed").Count(); got != 1 {
		t.Errorf("latency{update,client>fed} count = %d, want 1", got)
	}

	// The flight ring holds both hops.
	events := flight.Snapshot()
	if len(events) != 2 || events[0].Class != "span" || events[1].Class != "span" {
		t.Fatalf("flight ring = %+v, want 2 span events", events)
	}

	// And the JSONL export spells the kinds out.
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, `"kind_name":"train"`) ||
		!strings.Contains(out, `"kind_name":"update"`) ||
		strings.Count(out, "\n") != 2 {
		t.Fatalf("JSONL export wrong:\n%s", out)
	}
}

// TestTracerFanoutParents: every send from one handler invocation parents
// on the same inbound span, and sibling spans get distinct IDs.
func TestTracerFanoutParents(t *testing.T) {
	log := NewSpanLog()
	tracer := newTracerIn(NewRegistry(), &Flight{}, 1, log)
	kernel := sim.NewKernel()
	tr := tracer.Wrap(sim.NewNetwork(kernel, nil))

	tr.Register(comm.FederatorID, handlerFunc(func(env comm.Env, msg comm.Message) {
		if msg.Kind != comm.KindProfile {
			return
		}
		for _, to := range []comm.NodeID{1, 2} {
			env.Send(comm.Message{From: comm.FederatorID, To: to, Kind: comm.KindTrain})
		}
	}))
	tr.Register(1, &sinkHandler{})
	tr.Register(2, &sinkHandler{})
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	tr.Invoke(1, func(env comm.Env) {
		env.Send(comm.Message{From: 1, To: comm.FederatorID, Kind: comm.KindProfile})
	})
	kernel.Run()

	spans := log.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	root := spans[0]
	if root.Parent != 0 {
		t.Fatalf("root span has parent %d", root.Parent)
	}
	if spans[1].Parent != root.ID || spans[2].Parent != root.ID {
		t.Fatalf("fanout parents = %d/%d, want both %d", spans[1].Parent, spans[2].Parent, root.ID)
	}
	if spans[1].ID == spans[2].ID {
		t.Fatal("sibling spans share an ID")
	}
}

// captureNetwork is a sim.Network that remembers the handlers registered on
// it, so a test can deliver to one the way a layer below would.
type captureNetwork struct {
	*sim.Network
	handlers map[comm.NodeID]comm.Handler
}

func (c *captureNetwork) Register(id comm.NodeID, h comm.Handler) {
	c.handlers[id] = h
	c.Network.Register(id, h)
}

// TestTracerRecordsFaultNotices: the fault layer injects KindFault without
// a Send, so it carries no span; the tracer files it in the flight ring and
// still passes it on to the actor.
func TestTracerRecordsFaultNotices(t *testing.T) {
	flight := &Flight{}
	tracer := newTracerIn(NewRegistry(), flight, 1)
	inner := &captureNetwork{Network: sim.NewNetwork(sim.NewKernel(), nil),
		handlers: make(map[comm.NodeID]comm.Handler)}
	tr := tracer.Wrap(inner)

	sink := &sinkHandler{}
	tr.Register(comm.FederatorID, sink)
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}
	inner.handlers[comm.FederatorID].OnMessage(inner.Env(comm.FederatorID), comm.Message{
		From: 3, To: comm.FederatorID, Kind: comm.KindFault,
		Payload: comm.FaultPayload{Node: 3, Down: true},
	})

	if len(sink.got) != 1 || sink.got[0].Kind != comm.KindFault {
		t.Fatalf("fault not forwarded: %+v", sink.got)
	}
	events := flight.Snapshot()
	if len(events) != 1 || events[0].Class != "fault" ||
		events[0].From != 3 || !events[0].Down {
		t.Fatalf("flight ring = %+v, want one crash fault for node 3", events)
	}
}

func TestNilTracerWrapIsInert(t *testing.T) {
	inner := comm.Transport(sim.NewNetwork(sim.NewKernel(), nil))
	if got := (*Tracer)(nil).Wrap(inner); got != inner {
		t.Fatalf("nil tracer wrap = %T, want inner unchanged", got)
	}
	var log *SpanLog
	log.OnSpan(Span{})
	if log.Len() != 0 || log.Spans() != nil {
		t.Fatal("nil span log should be inert")
	}
}
