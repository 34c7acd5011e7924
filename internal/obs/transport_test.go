package obs

import (
	"testing"
	"time"

	"aergia/internal/comm"
	"aergia/internal/sim"
)

// echoHandler replies to every KindTrain with a KindUpdate.
type echoHandler struct{ peer comm.NodeID }

func (h *echoHandler) OnMessage(env comm.Env, msg comm.Message) {
	if msg.Kind == comm.KindTrain {
		env.Send(comm.Message{From: msg.To, To: h.peer, Kind: comm.KindUpdate, Size: 64})
	}
}

// sinkHandler records deliveries.
type sinkHandler struct{ got []comm.Message }

func (h *sinkHandler) OnMessage(_ comm.Env, msg comm.Message) {
	h.got = append(h.got, msg)
}

// handlerFunc adapts a func to comm.Handler.
type handlerFunc func(comm.Env, comm.Message)

func (f handlerFunc) OnMessage(env comm.Env, msg comm.Message) { f(env, msg) }

func TestWrapTransportNilRegistry(t *testing.T) {
	inner := sim.NewNetwork(sim.NewKernel(), nil)
	if got := WrapTransport(inner, nil); got != comm.Transport(inner) {
		t.Fatalf("nil registry should return inner unchanged, got %T", got)
	}
}

func TestWrapTransportCountsTraffic(t *testing.T) {
	reg := NewRegistry()
	kernel := sim.NewKernel()
	tr := WrapTransport(sim.NewNetwork(kernel, nil), reg)

	const fed, client = comm.NodeID(0), comm.NodeID(1)
	sink := &sinkHandler{}
	tr.Register(fed, sink)
	tr.Register(client, &echoHandler{peer: fed})
	if err := tr.Seal(); err != nil {
		t.Fatal(err)
	}

	tr.Invoke(fed, func(env comm.Env) {
		env.Send(comm.Message{From: fed, To: client, Kind: comm.KindTrain, Size: 128})
	})
	kernel.Run()

	if len(sink.got) != 1 || sink.got[0].Kind != comm.KindUpdate {
		t.Fatalf("sink got %v, want one KindUpdate", sink.got)
	}

	msgs := reg.CounterVec("aergia_comm_messages_total", "", "kind", "dir")
	bytes := reg.CounterVec("aergia_comm_bytes_total", "", "kind", "dir")
	checks := []struct {
		kind, dir string
		vec       *CounterVec
		want      float64
	}{
		{"train", DirSent, msgs, 1},
		{"train", DirDelivered, msgs, 1},
		{"update", DirSent, msgs, 1},
		{"update", DirDelivered, msgs, 1},
		{"train", DirSent, bytes, 128},
		{"train", DirDelivered, bytes, 128},
		{"update", DirSent, bytes, 64},
		{"update", DirDelivered, bytes, 64},
	}
	for _, c := range checks {
		if got := c.vec.With(c.kind, c.dir).Value(); got != c.want {
			t.Errorf("%s{kind=%q,dir=%q} = %v, want %v",
				"counter", c.kind, c.dir, got, c.want)
		}
	}

	handle := reg.HistogramVec("aergia_comm_handle_seconds", "", nil, "kind")
	if got := handle.With("train").Count(); got != 1 {
		t.Errorf("handle_seconds{kind=train} count = %d, want 1", got)
	}
	if got := handle.With("update").Count(); got != 1 {
		t.Errorf("handle_seconds{kind=update} count = %d, want 1", got)
	}
}

// TestWrapTransportPreservesVirtualTime pins the no-perturbation contract:
// the instrumented run's virtual timeline is identical to the bare run's.
func TestWrapTransportPreservesVirtualTime(t *testing.T) {
	run := func(reg *Registry) time.Duration {
		kernel := sim.NewKernel()
		link := sim.UniformLink(5*time.Millisecond, 1<<20)
		tr := WrapTransport(sim.NewNetwork(kernel, link), reg)
		const fed, client = comm.NodeID(0), comm.NodeID(1)
		var done time.Duration
		tr.Register(fed, handlerFunc(func(env comm.Env, msg comm.Message) {
			done = env.Now()
		}))
		tr.Register(client, &echoHandler{peer: fed})
		if err := tr.Seal(); err != nil {
			t.Fatal(err)
		}
		tr.Invoke(fed, func(env comm.Env) {
			env.Send(comm.Message{From: fed, To: client, Kind: comm.KindTrain, Size: 4096})
		})
		kernel.Run()
		return done
	}
	bare := run(nil)
	instrumented := run(NewRegistry())
	if bare == 0 || bare != instrumented {
		t.Fatalf("virtual completion time diverged: bare %v vs instrumented %v",
			bare, instrumented)
	}
}
