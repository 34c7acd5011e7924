// Package rpc provides a real TCP transport implementing the comm contract,
// so the same federator/client actors that run on the virtual-time
// simulator also run as an actual distributed deployment (the paper's
// testbed is peer-to-peer RPC over a fully connected network, §5.1).
//
// Framing is gob over persistent connections; payload types must be
// registered with RegisterPayload before use. Delivery is asynchronous and
// reliable per connection; each peer serializes handler invocations so
// actors keep their single-threaded semantics.
package rpc

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"aergia/internal/comm"
)

// RegisterPayload registers a payload type for gob encoding. Call once per
// concrete payload type before opening peers.
func RegisterPayload(v any) { gob.Register(v) }

// wireMessage is the on-the-wire envelope. Span rides along so a causal
// trace survives the socket hop; it stays outside Size (observability
// metadata is never charged as payload bytes).
type wireMessage struct {
	From    comm.NodeID
	To      comm.NodeID
	Round   int
	Kind    comm.Kind
	Size    int
	Span    comm.SpanContext
	Payload any
}

// ErrClosed is returned when sending through a closed peer.
var ErrClosed = errors.New("rpc: peer closed")

// Peer is one node of the fully connected TCP network.
type Peer struct {
	id      comm.NodeID
	ln      net.Listener
	handler comm.Handler
	epoch   time.Time

	mu       sync.Mutex
	registry map[comm.NodeID]string
	conns    map[comm.NodeID]*outConn
	inbound  map[net.Conn]struct{}
	closed   bool // sends rejected (shutdown begun)
	tornDown bool // listener/connections released (shutdown finished)

	handleMu sync.Mutex // serializes handler invocations

	wg sync.WaitGroup
}

type outConn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
}

// Listen starts a peer on addr (e.g. "127.0.0.1:0") delivering inbound
// messages to handler.
func Listen(id comm.NodeID, addr string, handler comm.Handler) (*Peer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	p := &Peer{
		id:       id,
		ln:       ln,
		handler:  handler,
		epoch:    time.Now(),
		registry: make(map[comm.NodeID]string),
		conns:    make(map[comm.NodeID]*outConn),
		inbound:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the peer's listen address.
func (p *Peer) Addr() string { return p.ln.Addr().String() }

// ID returns the peer's node ID.
func (p *Peer) ID() comm.NodeID { return p.id }

// SetRegistry installs the full peer address book (a copy is taken).
func (p *Peer) SetRegistry(reg map[comm.NodeID]string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.registry = make(map[comm.NodeID]string, len(reg))
	for id, addr := range reg {
		p.registry[id] = addr
	}
}

// SetEpoch aligns the peer's clock origin (all peers of one experiment
// should share an epoch so Now() is comparable).
func (p *Peer) SetEpoch(epoch time.Time) { p.epoch = epoch }

// AddRoute adds or replaces a single address-book entry. The control plane
// uses it to admit workers one at a time as they register, where
// SetRegistry's full-replace semantics would race concurrent joins.
func (p *Peer) AddRoute(id comm.NodeID, addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.registry[id] = addr
}

// DropRoute forgets a peer: its address-book entry is removed and any
// cached outbound connection is closed. Used when a worker is declared
// dead so a later send cannot reach a stale socket.
func (p *Peer) DropRoute(id comm.NodeID) {
	p.mu.Lock()
	delete(p.registry, id)
	oc := p.conns[id]
	delete(p.conns, id)
	p.mu.Unlock()
	if oc == nil {
		return
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.conn != nil {
		if cerr := oc.conn.Close(); cerr != nil {
			_ = cerr // best-effort teardown of an abandoned route
		}
		oc.conn, oc.enc = nil, nil
	}
}

// Send stamps the sender and delivers msg, returning the transport error
// instead of panicking. FL actors keep the panic-on-failure Env contract
// (the reliable-network assumption, §3.1); the control plane uses Send
// because a worker vanishing mid-send is an expected fault it must absorb,
// not a protocol violation.
func (p *Peer) Send(msg comm.Message) error {
	msg.From = p.id
	return p.send(msg)
}

func (p *Peer) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			if cerr := conn.Close(); cerr != nil {
				_ = cerr
			}
			return
		}
		p.inbound[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

func (p *Peer) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		if err := conn.Close(); err != nil {
			_ = err // closing best-effort on reader exit
		}
		p.mu.Lock()
		delete(p.inbound, conn)
		p.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	for {
		msg, err := readFrame(dec)
		if err != nil {
			return
		}
		p.handleMu.Lock()
		p.handler.OnMessage(p.Env(), msg)
		p.handleMu.Unlock()
	}
}

// readFrame decodes the next envelope from a peer's byte stream. The bytes
// are untrusted: a truncated frame, a length prefix larger than the stream
// delivers, or a value of another type is an error that ends the
// connection, never a panic. gob refuses a length over its frame cap and
// reads anything under it in 10 MiB chunks as the bytes arrive, so a forged
// length costs one chunk, not what it promises (FuzzReadFrame holds it to
// that).
func readFrame(dec *gob.Decoder) (comm.Message, error) {
	var wm wireMessage
	if err := dec.Decode(&wm); err != nil {
		return comm.Message{}, err
	}
	return comm.Message{
		From:    wm.From,
		To:      wm.To,
		Round:   wm.Round,
		Kind:    wm.Kind,
		Size:    wm.Size,
		Span:    wm.Span,
		Payload: wm.Payload,
	}, nil
}

// Env returns the comm.Env for this peer.
func (p *Peer) Env() comm.Env { return &env{peer: p} }

// Invoke runs fn while holding the peer's handler lock, so it is serialized
// with message handling exactly like a delivered message. Use it to start
// an actor whose state is otherwise only touched from OnMessage.
func (p *Peer) Invoke(fn func()) {
	p.handleMu.Lock()
	defer p.handleMu.Unlock()
	fn()
}

// send delivers a message to the destination peer, dialing or reusing a
// connection.
func (p *Peer) send(msg comm.Message) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	addr, ok := p.registry[msg.To]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("rpc: no address for node %d", msg.To)
	}
	oc := p.conns[msg.To]
	if oc == nil {
		oc = &outConn{}
		p.conns[msg.To] = oc
	}
	p.mu.Unlock()

	oc.mu.Lock()
	defer oc.mu.Unlock()
	wm := wireMessage{
		From:    msg.From,
		To:      msg.To,
		Round:   msg.Round,
		Kind:    msg.Kind,
		Size:    msg.Size,
		Span:    msg.Span,
		Payload: msg.Payload,
	}
	if oc.conn != nil {
		if err := oc.enc.Encode(&wm); err == nil {
			return nil
		}
		// Stale connection; reconnect once.
		if err := oc.conn.Close(); err != nil {
			_ = err // best-effort close of a broken connection
		}
		oc.conn, oc.enc = nil, nil
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("rpc: dial node %d at %s: %w", msg.To, addr, err)
	}
	oc.conn = conn
	oc.enc = gob.NewEncoder(conn)
	if err := oc.enc.Encode(&wm); err != nil {
		if cerr := conn.Close(); cerr != nil {
			_ = cerr
		}
		oc.conn, oc.enc = nil, nil
		return fmt.Errorf("rpc: send to node %d: %w", msg.To, err)
	}
	return nil
}

// beginClose marks the peer closed so further sends fail fast with
// ErrClosed, without tearing down connections yet. Network.Close uses it to
// quiesce every peer of a cluster before any listener goes away, so an
// actor timer firing mid-shutdown sees a clean ErrClosed instead of a
// refused dial to an already-torn-down sibling.
func (p *Peer) beginClose() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// isClosed reports whether the peer has begun shutting down.
func (p *Peer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Close shuts the peer down and waits for its goroutines.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.tornDown {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.tornDown = true
	conns := p.conns
	p.conns = map[comm.NodeID]*outConn{}
	inbound := make([]net.Conn, 0, len(p.inbound))
	for conn := range p.inbound {
		inbound = append(inbound, conn)
	}
	p.mu.Unlock()
	// Reader goroutines race Close for the same conns (a broken decode
	// closes its conn too), so "already closed" is expected teardown noise,
	// not a failure.
	benign := func(cerr error) bool { return cerr == nil || errors.Is(cerr, net.ErrClosed) }
	var err error
	if cerr := p.ln.Close(); !benign(cerr) {
		err = cerr
	}
	for _, conn := range inbound {
		if cerr := conn.Close(); !benign(cerr) && err == nil {
			err = cerr
		}
	}
	for _, oc := range conns {
		oc.mu.Lock()
		if oc.conn != nil {
			if cerr := oc.conn.Close(); !benign(cerr) && err == nil {
				err = cerr
			}
		}
		oc.mu.Unlock()
	}
	p.wg.Wait()
	return err
}

// env implements comm.Env over the peer.
type env struct {
	peer *Peer
}

var _ comm.Env = (*env)(nil)

func (e *env) Now() time.Duration { return time.Since(e.peer.epoch) }

func (e *env) Send(msg comm.Message) {
	msg.From = e.peer.id
	if err := e.peer.send(msg); err != nil {
		if errors.Is(err, ErrClosed) || e.peer.isClosed() {
			// The peer is shutting down: actor timers (client completions,
			// deadline callbacks) legitimately outlive a finished run, so a
			// post-close send is a drop, not a reliability violation.
			return
		}
		// Reliable-network assumption (§3.1): surface violations loudly in
		// this reference transport rather than dropping silently.
		panic(fmt.Sprintf("rpc: send failed: %v", err))
	}
}

type timer struct {
	t *time.Timer
}

func (t timer) Cancel() { t.t.Stop() }

func (e *env) After(d time.Duration, fn func()) comm.Timer {
	p := e.peer
	return timer{t: time.AfterFunc(d, func() {
		p.handleMu.Lock()
		defer p.handleMu.Unlock()
		fn()
	})}
}
