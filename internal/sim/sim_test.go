package sim

import (
	"testing"
	"time"

	"aergia/internal/comm"
)

func TestKernelOrdersEventsByTime(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(3*time.Second, func() { order = append(order, 3) })
	k.Schedule(1*time.Second, func() { order = append(order, 1) })
	k.Schedule(2*time.Second, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("Now = %v", k.Now())
	}
}

func TestKernelFIFOForSimultaneousEvents(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Second, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var fired []time.Duration
	k.Schedule(time.Second, func() {
		fired = append(fired, k.Now())
		k.Schedule(2*time.Second, func() {
			fired = append(fired, k.Now())
		})
	})
	k.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 3*time.Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	h := k.Schedule(time.Second, func() { ran = true })
	h.Cancel()
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Second, func() {})
	k.Run()
	ran := false
	k.Schedule(-time.Second, func() { ran = true })
	k.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if k.Now() != time.Second {
		t.Fatalf("clock moved backward: %v", k.Now())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []int
	k.Schedule(1*time.Second, func() { fired = append(fired, 1) })
	k.Schedule(5*time.Second, func() { fired = append(fired, 5) })
	k.RunUntil(3 * time.Second)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", k.Now())
	}
	k.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event lost: %v", fired)
	}
}

func TestKernelRunUntilCancelledHeadEvent(t *testing.T) {
	k := NewKernel()
	ran := false
	head := k.Schedule(1*time.Second, func() { t.Fatal("cancelled head event ran") })
	k.Schedule(2*time.Second, func() { ran = true })
	head.Cancel()
	// The cancelled event sits at the queue head; RunUntil must skip it
	// without firing it or advancing the clock to a stale timestamp.
	k.RunUntil(3 * time.Second)
	if !ran {
		t.Fatal("live event behind the cancelled head did not run")
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want the 3s deadline", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("queue still holds %d events", k.Pending())
	}
}

func TestKernelRunUntilOnlyCancelledEvents(t *testing.T) {
	k := NewKernel()
	for _, d := range []time.Duration{time.Second, 2 * time.Second} {
		h := k.Schedule(d, func() { t.Fatal("cancelled event ran") })
		h.Cancel()
	}
	// A queue of nothing but cancelled events must drain, and the clock
	// must still land exactly on the deadline.
	k.RunUntil(5 * time.Second)
	if k.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("cancelled events left in queue: %d", k.Pending())
	}
}

func TestKernelRunUntilEventExactlyAtDeadline(t *testing.T) {
	k := NewKernel()
	var fired []time.Duration
	k.Schedule(3*time.Second, func() { fired = append(fired, k.Now()) })
	k.Schedule(3*time.Second+time.Nanosecond, func() { fired = append(fired, k.Now()) })
	// Timestamps <= deadline fire; one nanosecond past it stays queued.
	k.RunUntil(3 * time.Second)
	if len(fired) != 1 || fired[0] != 3*time.Second {
		t.Fatalf("fired = %v, want exactly the at-deadline event", fired)
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("post-deadline event lost (pending = %d)", k.Pending())
	}
	k.Run()
	if len(fired) != 2 || fired[1] != 3*time.Second+time.Nanosecond {
		t.Fatalf("post-deadline event mis-fired: %v", fired)
	}
}

func TestKernelRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	k := NewKernel()
	// No events: the clock still advances to the deadline (the semantics
	// deadline-based strategies rely on)...
	k.RunUntil(4 * time.Second)
	if k.Now() != 4*time.Second {
		t.Fatalf("Now = %v, want 4s", k.Now())
	}
	// ...but never backward for an earlier deadline.
	k.RunUntil(2 * time.Second)
	if k.Now() != 4*time.Second {
		t.Fatalf("clock moved backward: %v", k.Now())
	}
}

type recorder struct {
	got []comm.Message
	at  []time.Duration
	env comm.Env
}

func (r *recorder) OnMessage(env comm.Env, msg comm.Message) {
	r.got = append(r.got, msg)
	r.at = append(r.at, env.Now())
	r.env = env
}

func TestNetworkDelivery(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k, UniformLink(100*time.Millisecond, 1000)) // 1000 B/s
	a, b := &recorder{}, &recorder{}
	n.Register(1, a)
	n.Register(2, b)
	env := n.Env(1)
	env.Send(comm.Message{To: 2, Kind: comm.KindTrain, Size: 500})
	k.Run()
	if len(b.got) != 1 {
		t.Fatalf("b received %d messages", len(b.got))
	}
	// 100ms latency + 500B/1000Bps = 600ms total.
	if b.at[0] != 600*time.Millisecond {
		t.Fatalf("delivery at %v, want 600ms", b.at[0])
	}
	if b.got[0].From != 1 {
		t.Fatalf("From = %d, want 1 (stamped by env)", b.got[0].From)
	}
}

func TestNetworkZeroBandwidthMeansInstantTransfer(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k, UniformLink(50*time.Millisecond, 0))
	r := &recorder{}
	n.Register(2, r)
	n.Env(1).Send(comm.Message{To: 2, Size: 1 << 30})
	// Registering sender not required for sending.
	k.Run()
	if len(r.got) != 1 || r.at[0] != 50*time.Millisecond {
		t.Fatalf("at = %v", r.at)
	}
}

func TestNetworkUnregisteredDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unregistered destination")
		}
	}()
	k := NewKernel()
	n := NewNetwork(k, nil)
	n.Env(1).Send(comm.Message{To: 9})
	k.Run()
}

func TestEnvAfterTimerCancel(t *testing.T) {
	k := NewKernel()
	n := NewNetwork(k, nil)
	env := n.Env(1)
	ran := false
	timer := env.After(time.Second, func() { ran = true })
	timer.Cancel()
	k.Run()
	if ran {
		t.Fatal("cancelled timer fired")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		k := NewKernel()
		n := NewNetwork(k, UniformLink(10*time.Millisecond, 1e6))
		r := &recorder{}
		n.Register(2, r)
		env := n.Env(1)
		for i := 0; i < 20; i++ {
			env.Send(comm.Message{To: 2, Size: i * 100})
		}
		k.Run()
		return r.at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replay diverged")
		}
	}
}

// Pending returns the number of queued (possibly cancelled) events.
func (k *Kernel) Pending() int { return k.queue.Len() }
