package sim

import (
	"fmt"
	"time"

	"aergia/internal/comm"
)

// LinkModel yields the latency and bandwidth of the directed link between
// two nodes. Bandwidth is in bytes per second; zero means infinite.
type LinkModel func(from, to comm.NodeID) (latency time.Duration, bandwidth float64)

// UniformLink returns a LinkModel with identical parameters on every link.
func UniformLink(latency time.Duration, bandwidth float64) LinkModel {
	return func(comm.NodeID, comm.NodeID) (time.Duration, float64) {
		return latency, bandwidth
	}
}

// Network is a simulated fully connected, reliable, asynchronous network
// over a Kernel (the paper's §3.1 network assumptions). Message delay is
// latency + size/bandwidth; Message.Size carries the true encoded payload
// size, so wire codecs (internal/codec) shrink the virtual transfer delay
// exactly as they shrink real TCP traffic.
type Network struct {
	kernel *Kernel
	link   LinkModel
	nodes  map[comm.NodeID]comm.Handler // registered and activated nodes
	ranges comm.Ranges
}

// NewNetwork builds a network on the given kernel and link model.
func NewNetwork(kernel *Kernel, link LinkModel) *Network {
	if link == nil {
		link = UniformLink(0, 0)
	}
	return &Network{
		kernel: kernel,
		link:   link,
		nodes:  make(map[comm.NodeID]comm.Handler),
	}
}

var (
	_ comm.Transport     = (*Network)(nil)
	_ comm.RangeRegistry = (*Network)(nil)
)

// Register attaches a handler to a node ID.
func (n *Network) Register(id comm.NodeID, h comm.Handler) {
	n.nodes[id] = h
}

// RegisterRange implements comm.RangeRegistry: a node of the range gets its
// handler from f when the first message to it is sent, on the kernel's
// goroutine like everything else here.
func (n *Network) RegisterRange(lo, hi comm.NodeID, f func(comm.NodeID) comm.Handler) {
	n.ranges.Add(lo, hi, f)
}

// Seal implements comm.Transport; simulated membership needs no binding
// step, so it is a no-op.
func (n *Network) Seal() error { return nil }

// Env returns the execution environment of a node.
func (n *Network) Env(id comm.NodeID) comm.Env {
	return &env{net: n, id: id}
}

// Invoke schedules fn in id's actor context at the current virtual time; it
// runs when the kernel is next driven, FIFO-ordered with any events already
// scheduled for that instant.
func (n *Network) Invoke(id comm.NodeID, fn func(comm.Env)) {
	n.kernel.Schedule(0, func() { fn(n.Env(id)) })
}

// Drive runs the kernel until the event queue drains. The simulated network
// is self-draining — a completed run leaves no pending events — so done is
// not waited on; callers detect an incomplete run by their own state (e.g.
// OnFinish never fired).
func (n *Network) Drive(<-chan struct{}) error {
	n.kernel.Run()
	return nil
}

// Close implements comm.Transport; the simulator holds no resources.
func (n *Network) Close() error { return nil }

// Kernel exposes the underlying kernel.
func (n *Network) Kernel() *Kernel { return n.kernel }

// deliver routes a message to its destination handler after the link delay.
func (n *Network) deliver(msg comm.Message) {
	dst, ok := n.nodes[msg.To]
	if !ok {
		f := n.ranges.Factory(msg.To)
		if f == nil {
			panic(fmt.Sprintf("sim: message %s to unregistered node %d", msg.Kind, msg.To))
		}
		dst = f(msg.To)
		n.nodes[msg.To] = dst
	}
	lat, bw := n.link(msg.From, msg.To)
	delay := lat
	if bw > 0 && msg.Size > 0 {
		delay += time.Duration(float64(msg.Size) / bw * float64(time.Second))
	}
	n.kernel.Schedule(delay, func() {
		dst.OnMessage(n.Env(msg.To), msg)
	})
}

// env implements comm.Env for one node on the simulated network.
type env struct {
	net *Network
	id  comm.NodeID
}

var _ comm.Env = (*env)(nil)

func (e *env) Now() time.Duration { return e.net.kernel.Now() }

func (e *env) Send(msg comm.Message) {
	msg.From = e.id
	e.net.deliver(msg)
}

func (e *env) After(d time.Duration, fn func()) comm.Timer {
	return e.net.kernel.Schedule(d, fn)
}
