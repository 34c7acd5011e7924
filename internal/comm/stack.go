package comm

import (
	"fmt"
	"time"
)

// Rejoiner is implemented by actors that can be resurrected after a crash.
// OnRejoin runs in the node's actor context (serialized with its message
// handling) and must rebuild all in-memory state from the actor's static,
// seed-derived configuration — a crash wiped everything else.
type Rejoiner interface {
	OnRejoin(env Env)
}

// Interceptor is one transport concern (fault injection, metrics, spans,
// tier routing) written as hooks on a Stack. Every hook is optional and an
// absent hook is a pass-through; a hook that is present decides whether and
// how the call continues by calling the matching Layer method (DESIGN.md §15
// has the hook-order table and a worked example).
type Interceptor struct {
	// Send sees each message a node sends, outermost interceptor first, in
	// the sender's actor context. l.Send passes it on; not calling it drops
	// the message.
	Send func(l Layer, msg Message)
	// Deliver sees each message arriving at a node, innermost interceptor
	// first. l.Deliver passes it up; returning from the hook brackets
	// everything above, the actor's handler included.
	Deliver func(l Layer, msg Message)
	// After sees each timer a node arms, outermost first. l.After arms it.
	After func(l Layer, d time.Duration, fn func()) Timer
	// State makes the interceptor's state on one node when the node
	// activates: at Seal for the nodes active by then, at first use for a
	// ranged node (RangeRegistry) activated later. Hooks read it with
	// Layer.State. It must be a pure function of the ID and of what the
	// interceptor fixed before Seal, since when a node activates depends on
	// the traffic.
	State func(id NodeID) any
	// Seal runs once the inner transport is sealed, innermost first, with
	// the interceptor's view of the membership. It is the place to arm
	// transport-level timers.
	Seal func(m Members) error
	// Close runs before the inner transport closes, outermost first.
	Close func()
}

// On adds the interceptor above everything already on inner. An unsealed
// Stack (or a handle embedding one) grows by one layer; any other transport
// becomes the bottom of a new Stack. So a chain of wrap calls builds one
// stack, and a foreign decorator in the middle simply yields two.
func (ic Interceptor) On(inner Transport) *Stack {
	if h, ok := inner.(interface{ stack() *Stack }); ok && !h.stack().sealed {
		s := h.stack()
		s.ics = append(s.ics, ic)
		return s
	}
	return &Stack{inner: inner, ics: []Interceptor{ic}, nodes: make(map[NodeID]*node)}
}

// Stack implements Transport, PayloadRegistry and RangeRegistry over an
// inner transport and runs its interceptors around every send, delivery and
// timer. It owns what every transport wrapper used to repeat: the handler
// wrap, one env per node, Invoke/Drive/Close/RegisterPayload forwarding and
// Rejoiner forwarding.
//
// It holds a node only once the node is active: registered, or ranged and
// addressed — by a delivery, Env or Invoke. A ranged node activates on the
// goroutine that addresses it, unguarded: on the simulator that is the
// kernel's one goroutine, and a concurrent inner transport lacks
// RangeRegistry, so RegisterRange activates every node before Seal.
type Stack struct {
	inner  Transport
	ics    []Interceptor // innermost first
	nodes  map[NodeID]*node
	ranges Ranges
	sealed bool
}

var (
	_ Transport       = (*Stack)(nil)
	_ PayloadRegistry = (*Stack)(nil)
	_ RangeRegistry   = (*Stack)(nil)
)

func (s *Stack) stack() *Stack { return s }

// RegisterPayload forwards to a serializing inner transport.
func (s *Stack) RegisterPayload(v any) {
	if reg, ok := s.inner.(PayloadRegistry); ok {
		reg.RegisterPayload(v)
	}
}

// Register implements Transport.
func (s *Stack) Register(id NodeID, h Handler) {
	n := s.nodes[id]
	if n == nil {
		n = s.add(id, h)
	}
	n.h = h
	s.inner.Register(id, n)
}

// RegisterRange implements RangeRegistry. The inner transport learns the
// range through comm.RegisterRange with the stack's own activation as the
// factory, so a lazy inner transport activates the stack's node when it
// first routes to it and any other activates every node now.
func (s *Stack) RegisterRange(lo, hi NodeID, f func(NodeID) Handler) {
	s.ranges.Add(lo, hi, f)
	RegisterRange(s.inner, lo, hi, func(id NodeID) Handler { return s.activate(id) })
}

// Seal implements Transport: the inner transport seals first, then the
// active nodes make their interceptor state, then the Seal hooks run
// innermost first.
func (s *Stack) Seal() error {
	if err := s.inner.Seal(); err != nil {
		return err
	}
	s.sealed = true
	for _, n := range s.nodes {
		n.makeState()
	}
	for i, ic := range s.ics {
		if ic.Seal == nil {
			continue
		}
		if err := ic.Seal(Members{s, i}); err != nil {
			return err
		}
	}
	return nil
}

// Env implements Transport: the node's one top-of-stack env.
func (s *Stack) Env(id NodeID) Env { return s.node(id) }

// Invoke implements Transport; fn sees the top-of-stack env.
func (s *Stack) Invoke(id NodeID, fn func(Env)) {
	n := s.node(id)
	s.inner.Invoke(id, func(Env) { fn(n) })
}

// Drive implements Transport.
func (s *Stack) Drive(done <-chan struct{}) error { return s.inner.Drive(done) }

// Close implements Transport.
func (s *Stack) Close() error {
	for i := len(s.ics) - 1; i >= 0; i-- {
		if s.ics[i].Close != nil {
			s.ics[i].Close()
		}
	}
	return s.inner.Close()
}

func (s *Stack) node(id NodeID) *node {
	var n *node
	if s.sealed {
		n = s.activate(id)
	}
	if n == nil {
		panic(fmt.Sprintf("comm: node %d not registered (or stack not sealed)", id))
	}
	return n
}

// activate returns id's node, activating it when a range holds it; nil
// when id is neither registered nor ranged.
func (s *Stack) activate(id NodeID) *node {
	if n := s.nodes[id]; n != nil {
		return n
	}
	f := s.ranges.Factory(id)
	if f == nil {
		return nil
	}
	return s.add(id, f(id))
}

// add makes id's node; on a sealed stack it makes its state at once.
func (s *Stack) add(id NodeID, h Handler) *node {
	n := &node{s: s, id: id, h: h}
	s.nodes[id] = n
	if s.sealed {
		n.makeState()
	}
	return n
}

// Members is one interceptor's view of a sealed stack's membership, handed
// to its Seal hook: the registered nodes and every ID of every range.
type Members struct {
	s *Stack
	i int
}

// Each calls fn once with every member's ID, in no particular order. It
// activates nothing.
func (m Members) Each(fn func(NodeID)) {
	for id := range m.s.nodes {
		if m.s.ranges.Factory(id) == nil {
			fn(id)
		}
	}
	m.s.ranges.Each(fn)
}

// Layer activates member id and returns the interceptor's layer on it; ok
// is false when id is no member.
func (m Members) Layer(id NodeID) (l Layer, ok bool) {
	n := m.s.activate(id)
	if n == nil {
		return Layer{}, false
	}
	return Layer{n, m.i}, true
}

// node is one active node: the handler the inner transport delivers to,
// the env the actor sees, the Rejoiner a fault layer below resurrects, and
// each interceptor's state on it.
type node struct {
	s     *Stack
	id    NodeID
	h     Handler
	inner Env   // see below
	state []any // by interceptor; nil when none has a State hook
}

// makeState runs the interceptors' State hooks for the node.
func (n *node) makeState() {
	for i, ic := range n.s.ics {
		if ic.State == nil {
			continue
		}
		if n.state == nil {
			n.state = make([]any, len(n.s.ics))
		}
		n.state[i] = ic.State(n.id)
	}
}

// below is the inner transport's env for the node, resolved on first use —
// most nodes of a sampled 100k-client run never act — and kept: it is
// stateless per node on every transport, so one serves every delivery. An
// env is only used from its node's actor context (or before traffic starts,
// at Seal), which is what keeps the unguarded write safe.
func (n *node) below() Env {
	if n.inner == nil {
		n.inner = n.s.inner.Env(n.id)
	}
	return n.inner
}

func (n *node) Now() time.Duration { return n.below().Now() }

func (n *node) Send(msg Message) { n.send(len(n.s.ics), msg) }

func (n *node) After(d time.Duration, fn func()) Timer { return n.after(len(n.s.ics), d, fn) }

func (n *node) OnMessage(_ Env, msg Message) { n.deliver(0, msg) }

// OnRejoin forwards a rejoin from a fault layer under this stack's inner
// transport (a second stack below a foreign decorator).
func (n *node) OnRejoin(Env) {
	if r, ok := n.h.(Rejoiner); ok {
		r.OnRejoin(n)
	}
}

// send runs the Send hooks strictly below layer i, then the inner env.
func (n *node) send(i int, msg Message) {
	for i--; i >= 0; i-- {
		if hook := n.s.ics[i].Send; hook != nil {
			hook(Layer{n, i}, msg)
			return
		}
	}
	n.below().Send(msg)
}

// after runs the After hooks strictly below layer i, then the inner env.
func (n *node) after(i int, d time.Duration, fn func()) Timer {
	for i--; i >= 0; i-- {
		if hook := n.s.ics[i].After; hook != nil {
			return hook(Layer{n, i}, d, fn)
		}
	}
	return n.below().After(d, fn)
}

// deliver runs the Deliver hooks from layer i up, then the actor.
func (n *node) deliver(i int, msg Message) {
	for ; i < len(n.s.ics); i++ {
		if hook := n.s.ics[i].Deliver; hook != nil {
			hook(Layer{n, i}, msg)
			return
		}
	}
	n.h.OnMessage(n, msg)
}

// Layer is one interceptor's place on one node, handed to its hooks. It is
// the Env of everything below the interceptor (Now, Send, After) plus the
// way up (Deliver, Rejoin) and the interceptor's state on the node.
type Layer struct {
	n *node
	i int
}

var _ Env = Layer{}

// ID is the node the layer belongs to.
func (l Layer) ID() NodeID { return l.n.id }

// Now implements Env.
func (l Layer) Now() time.Duration { return l.n.Now() }

// Send hands msg to the layers below, as if the interceptor's node sent it.
func (l Layer) Send(msg Message) { l.n.send(l.i, msg) }

// After arms a timer through the layers below.
func (l Layer) After(d time.Duration, fn func()) Timer { return l.n.after(l.i, d, fn) }

// Deliver hands msg to the layers above and then the actor. Called from a
// Deliver hook it continues the delivery; called from the node's actor
// context otherwise (a timer armed with After) it injects a message that
// no layer below ever saw.
func (l Layer) Deliver(msg Message) { l.n.deliver(l.i+1, msg) }

// State is the interceptor's state on the node, made by its State hook
// when the node activated; nil without one.
func (l Layer) State() any {
	if l.n.state == nil {
		return nil
	}
	return l.n.state[l.i]
}

// Rejoin resurrects the node's actor: if it is a Rejoiner, its OnRejoin
// runs in the node's own actor context with the top-of-stack env.
func (l Layer) Rejoin() {
	if r, ok := l.n.h.(Rejoiner); ok {
		l.n.s.inner.Invoke(l.n.id, func(Env) { r.OnRejoin(l.n) })
	}
}
