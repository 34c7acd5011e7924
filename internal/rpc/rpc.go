// Package rpc provides a real TCP transport implementing the comm contract,
// so the same federator/client actors that run on the virtual-time
// simulator also run as an actual distributed deployment (the paper's
// testbed is peer-to-peer RPC over a fully connected network, §5.1).
//
// Each message is one length-prefixed frame on a persistent connection
// (wire.go, DESIGN.md §13): the control plane's payloads have a fixed
// layout of their own, and every other payload is gob inside its frame,
// its type registered with RegisterPayload before use. A connection opens
// with a versioned preface, so a peer from another build is refused by
// name. Delivery is asynchronous and reliable per connection; each peer
// serializes handler invocations so actors keep their single-threaded
// semantics.
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
// concrete payload type before opening peers. The control plane's payloads
// (control.go) need none.
func RegisterPayload(v any) { gob.Register(v) }

// ErrClosed is returned when sending through a closed peer.
var ErrClosed = errors.New("rpc: peer closed")

// Peer is one node of the fully connected TCP network.
type Peer struct {
	id      comm.NodeID
	ln      net.Listener
	handler comm.Handler
	epoch   time.Time
	env     *env

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
	w    frameWriter
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
	p.env = &env{peer: p}
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
	oc.drop()
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
	if err := exchangePrefaces(conn); err != nil {
		return // hung up, or from another build: such a dialer reads our preface and says so
	}
	fr := newFrameReader(conn)
	for {
		msg, err := fr.readFrame()
		if err != nil {
			return
		}
		p.handleMu.Lock()
		p.handler.OnMessage(p.env, msg)
		p.handleMu.Unlock()
	}
}

// Env returns the comm.Env for this peer.
func (p *Peer) Env() comm.Env { return p.env }

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
	return oc.send(&msg, addr)
}

// send writes msg's frame, dialing when the connection is down; a stale
// connection is replaced once. A control payload is laid out before the
// connection is touched, so one over its cap is refused with nothing
// written and the connection up. A gob payload goes through the
// connection's encoder, and its failure gives the connection up: the
// encoder may have recorded type descriptors the peer never got.
func (oc *outConn) send(msg *comm.Message, addr string) error {
	var frame []byte
	gobbed := payloadTag(msg.Payload) == tagGob
	if !gobbed {
		var err error
		if frame, err = oc.w.frame(msg); err != nil {
			return err
		}
	}
	for fresh := oc.conn == nil; ; fresh = true {
		if oc.conn == nil {
			if err := oc.dial(msg.To, addr); err != nil {
				return err
			}
		}
		if gobbed {
			var err error
			if frame, err = oc.w.frame(msg); err != nil {
				oc.drop()
				return fmt.Errorf("rpc: send to node %d: %w", msg.To, err)
			}
		}
		_, err := oc.conn.Write(frame)
		if err == nil {
			return nil
		}
		oc.drop()
		if fresh {
			return fmt.Errorf("rpc: send to node %d: %w", msg.To, err)
		}
	}
}

// dial connects to the peer and exchanges prefaces.
func (oc *outConn) dial(to comm.NodeID, addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("rpc: dial node %d at %s: %w", to, addr, err)
	}
	err = conn.SetReadDeadline(time.Now().Add(prefaceTimeout))
	if err == nil {
		err = exchangePrefaces(conn)
	}
	if err == nil {
		err = conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		if cerr := conn.Close(); cerr != nil {
			_ = cerr // the handshake's error is the one to report
		}
		return fmt.Errorf("rpc: node %d at %s: %w", to, addr, err)
	}
	oc.conn = conn
	return nil
}

// drop closes the connection, and with it the gob stream's state.
func (oc *outConn) drop() {
	if oc.conn == nil {
		return
	}
	if err := oc.conn.Close(); err != nil {
		_ = err // best-effort close of a broken or abandoned connection
	}
	oc.conn, oc.w.enc = nil, nil
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
