package fed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"aergia/internal/comm"
	"aergia/internal/obs"
	"aergia/internal/rpc"
	"aergia/internal/runner"
)

// ControlConfig configures the control side of a federation.
type ControlConfig struct {
	// Addr is the rpc listen address ("127.0.0.1:0" by default).
	Addr string
	// Heartbeat is the interval workers must beacon at (default 2s).
	Heartbeat time.Duration
	// Misses is how many consecutive heartbeats a worker may miss before
	// it is declared dead and its leases are requeued (default 3).
	Misses int
}

// JoinResponse is the body of POST /workers/join: the node identity the
// worker must rpc.Listen as, the control's rpc address to dial, and the
// heartbeat contract it must honor.
type JoinResponse struct {
	ID          int64  `json:"id"`
	Control     string `json:"control"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	Misses      int    `json:"misses"`
}

// WorkerInfo is one row of GET /workers.
type WorkerInfo struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Addr   string `json:"addr"`
	Slots  int    `json:"slots"`
	Leased int    `json:"leased"`
	// AgeMS is how long ago the worker was last heard from.
	AgeMS int64 `json:"age_ms"`
}

// workerState is the control's view of one registered worker.
type workerState struct {
	id       comm.NodeID
	name     string
	addr     string
	slots    int
	lastSeen time.Time
	leased   map[string]struct{}
	// credit is how many more jobs the worker asked for than the queue
	// held: its parked lease request. The next heartbeat or result
	// replaces it.
	credit int
	// owner is the worker's lease-owner key in the runner, formatted once
	// at admission. It includes the node ID so two workers started with
	// the same -name can never requeue or complete each other's leases.
	owner string
	// grant's scratch, reused from grant to grant: grants to one worker are
	// sequential, and a send has framed its payload when it returns.
	grant []rpc.Lease
	specs bytes.Buffer
	enc   *json.Encoder // writes to specs
}

// Control is the federation's coordinator: it listens as rpc.ControlID,
// admits workers, grants leases from the runner's queue — at once when a
// request finds work, otherwise the moment work arrives for a parked
// request — and requeues the leases of workers that stop heartbeating.
type Control struct {
	r         *runner.Runner
	peer      *rpc.Peer
	heartbeat time.Duration
	misses    int

	mu      sync.Mutex
	workers map[comm.NodeID]*workerState
	nextID  comm.NodeID
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewControl starts a federation control plane over the runner: the
// runner keeps serving local submissions exactly as before, and remote
// workers drain the same queue through leases.
func NewControl(r *runner.Runner, cfg ControlConfig) (*Control, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.Misses <= 0 {
		cfg.Misses = 3
	}
	c := &Control{
		r:         r,
		heartbeat: cfg.Heartbeat,
		misses:    cfg.Misses,
		workers:   make(map[comm.NodeID]*workerState),
		// Worker IDs start at the clock in nanoseconds so IDs from before a
		// control restart don't collide with freshly assigned ones (a
		// surviving worker keeps heartbeating under its old ID and is
		// re-admitted by it), and neither do those of two controls started
		// in the same second: an older control would have to admit a worker
		// per nanosecond of its head start to reach a younger one's base.
		nextID: comm.NodeID(time.Now().UnixNano()),
		stop:   make(chan struct{}),
	}
	peer, err := rpc.Listen(rpc.ControlID, cfg.Addr, c)
	if err != nil {
		return nil, fmt.Errorf("fed: control listen: %w", err)
	}
	c.peer = peer
	c.wg.Add(2)
	go c.monitor()
	go c.dispatch()
	return c, nil
}

// Addr returns the control's rpc listen address.
func (c *Control) Addr() string { return c.peer.Addr() }

// Heartbeat returns the heartbeat interval workers must honor.
func (c *Control) Heartbeat() time.Duration { return c.heartbeat }

// monitor declares workers dead after Misses missed heartbeats and
// requeues their leases.
func (c *Control) monitor() {
	defer c.wg.Done()
	t := time.NewTicker(c.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			cutoff := now.Add(-time.Duration(c.misses) * c.heartbeat)
			c.mu.Lock()
			var dead []*workerState
			for id, ws := range c.workers {
				if ws.lastSeen.Before(cutoff) {
					dead = append(dead, ws)
					delete(c.workers, id)
				}
			}
			c.mu.Unlock()
			for _, ws := range dead {
				c.evict(ws, "missed heartbeats")
			}
		}
	}
}

// dispatch spends parked credit each time the runner reports that a job
// entered an empty queue.
func (c *Control) dispatch() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.r.Ready():
			c.peer.Invoke(c.spendParked)
		}
	}
}

// spendParked offers the queue to every worker holding credit. It runs
// under the peer's handler lock, like a delivered message, so it and
// OnMessage can never lease against the same credit at once. The parked
// workers are read under that lock too: a request that parks after the
// runner's signal was raised has already seen the job.
func (c *Control) spendParked() {
	c.mu.Lock()
	var parked []*workerState
	for _, ws := range c.workers {
		if ws.credit > 0 {
			parked = append(parked, ws)
		}
	}
	c.mu.Unlock()
	for _, ws := range parked {
		c.grant(ws, false)
	}
}

// evict finalizes a worker's departure: routes dropped, leases requeued
// (cancel-requested ones finalized as canceled), metrics updated. The
// worker must already be out of c.workers.
func (c *Control) evict(ws *workerState, why string) {
	c.peer.DropRoute(ws.id)
	requeued, canceled := c.r.Requeue(ws.owner)
	fm().workers.Dec()
	fm().workersLost.Inc()
	fm().leaseActive.With(ws.name).Set(0)
	if requeued > 0 {
		fm().requeued.With(ws.name).Add(float64(requeued))
	}
	fmt.Fprintf(os.Stderr, "fed: worker %s evicted (%s): %d requeued, %d canceled\n",
		ws.owner, why, requeued, canceled)
}

// admit registers a worker and opens a route to it. Callers hold c.mu.
func (c *Control) admit(id comm.NodeID, name, addr string, slots int) *workerState {
	ws := &workerState{id: id, name: name, owner: fmt.Sprintf("%d:%s", id, name),
		addr: addr, slots: slots, lastSeen: time.Now(), leased: make(map[string]struct{})}
	ws.enc = json.NewEncoder(&ws.specs)
	c.workers[id] = ws
	c.peer.AddRoute(id, addr)
	fm().workers.Inc()
	return ws
}

// OnMessage dispatches control-plane traffic from workers. It runs under
// the peer's handler lock, serialized like any actor.
func (c *Control) OnMessage(_ comm.Env, msg comm.Message) {
	switch p := msg.Payload.(type) {
	case rpc.HeartbeatPayload:
		c.mu.Lock()
		ws := c.workers[msg.From]
		// A beat from an unknown sender with an address admits it: a worker
		// attaching, or one that survived a control restart or a transient
		// eviction. The grant that answers it, empty or not, is its ack.
		ack := ws == nil && p.Addr != ""
		if ack {
			ws = c.admit(msg.From, p.Name, p.Addr, p.Slots)
		}
		if ws != nil {
			ws.lastSeen = time.Now()
			ws.credit = p.Want
			fm().heartbeats.With(ws.name).Inc()
		}
		c.mu.Unlock()
		if ws != nil {
			c.grant(ws, ack)
		}
	case rpc.ResultPayload:
		c.finish(msg.From, p)
	case rpc.EventPayload:
		var ev obs.RoundEvent
		if err := json.Unmarshal(p.Event, &ev); err == nil {
			c.r.PublishEvent(p.ID, ev)
		}
	case rpc.ByePayload:
		c.mu.Lock()
		ws := c.workers[msg.From]
		delete(c.workers, msg.From)
		c.mu.Unlock()
		if ws != nil {
			c.evict(ws, "bye: "+p.Reason)
		}
	}
}

// grant spends the worker's credit on queued jobs, as many as both allow
// and never more than the worker has slots free by the control's own table.
// What the queue or the cap cannot supply stays parked as credit until
// dispatch, the worker's next heartbeat or result, or its eviction. Nothing
// is sent for an empty grant unless ack is set. Callers hold the peer's
// handler lock (OnMessage or Invoke), which is what makes grants to one
// worker sequential.
func (c *Control) grant(ws *workerState, ack bool) {
	c.mu.Lock()
	if c.workers[ws.id] != ws {
		c.mu.Unlock()
		return // evicted since the caller looked it up
	}
	want := min(ws.credit, ws.slots-len(ws.leased))
	owner, name := ws.owner, ws.name
	c.mu.Unlock()

	leases := c.r.Lease(owner, want)
	if len(leases) == 0 && !ack {
		return
	}
	// Each spec is the job as json.Marshal writes it, encoded from the
	// runner's own copy (a pointer, so omitzero boxes no copy of its
	// options) into the worker's buffer.
	ws.specs.Reset()
	for _, l := range leases {
		if err := ws.enc.Encode(l.Job); err != nil {
			// Options is plain data; encoding cannot fail. Guard anyway:
			// give the job back rather than losing it.
			c.r.Requeue(owner)
			return
		}
	}
	gp := rpc.LeaseGrantPayload{Leases: ws.grant[:0]}
	specs := ws.specs.Bytes()
	for _, l := range leases {
		// Encode ends each spec with a newline, which no JSON value holds.
		n := bytes.IndexByte(specs, '\n')
		gp.Leases = append(gp.Leases, rpc.Lease{ID: l.Job.ID(), Seq: l.Seq, Spec: specs[:n]})
		specs = specs[n+1:]
	}
	ws.grant = gp.Leases
	err := c.send(ws.id, gp)
	c.mu.Lock()
	current := c.workers[ws.id] == ws
	if current && err != nil {
		delete(c.workers, ws.id)
	} else if current {
		ws.credit -= len(gp.Leases)
		for _, l := range gp.Leases {
			ws.leased[l.ID] = struct{}{}
		}
		fm().leaseActive.With(name).Set(float64(len(ws.leased)))
	}
	c.mu.Unlock()
	switch {
	case !current:
		// The monitor evicted the worker while the grant was in flight,
		// before these leases existed: they go back like the rest.
		c.r.Requeue(owner)
	case err != nil:
		// The worker vanished between asking and being answered: requeue
		// everything it holds. If it is actually alive, its next heartbeat
		// re-admits it and asks again.
		c.evict(ws, "grant undeliverable")
	default:
		fm().leasesGranted.With(name).Add(float64(len(gp.Leases)))
	}
}

// finish lands one worker-reported result in the runner; stale leases
// (the worker was declared dead and the job requeued while the result was
// in flight) are dropped and counted. The result's request then replaces
// the worker's credit. Called from OnMessage only.
func (c *Control) finish(from comm.NodeID, p rpc.ResultPayload) {
	rec := runner.Record{
		Status:  runner.Status(p.Status),
		Elapsed: time.Duration(p.ElapsedNS),
		Error:   p.Error,
		Result:  p.Result,
	}
	err := c.r.Complete(p.ID, p.Seq, rec)
	c.mu.Lock()
	ws := c.workers[from]
	if ws != nil {
		ws.lastSeen = time.Now()
		ws.credit = p.Want
		delete(ws.leased, p.ID)
		fm().leaseActive.With(ws.name).Set(float64(len(ws.leased)))
	}
	c.mu.Unlock()
	if err != nil {
		fm().staleResults.Inc()
	}
	if ws != nil {
		c.grant(ws, false)
	}
}

// send delivers one control payload to a worker.
func (c *Control) send(to comm.NodeID, payload any) error {
	return c.peer.Send(comm.Message{To: to, Kind: comm.KindControl, Payload: payload})
}

// CancelJob cancels a job wherever it is: queued and locally running jobs
// are handled entirely by the runner; leased jobs additionally get a
// cancel message to the owning worker (best-effort — if the worker is
// gone, the heartbeat monitor finalizes the cancel on requeue). A job
// reads leased from the moment the runner leases it, before its grant has
// been sent, and a worker drops a cancel for a job it does not hold: the
// cancel is sent under the handler lock, behind any grant in progress.
func (c *Control) CancelJob(id string) (runner.JobState, error) {
	st, owner, err := c.r.Cancel(id)
	if err != nil || owner == "" {
		return st, err
	}
	var wid int64
	if _, serr := fmt.Sscanf(owner, "%d:", &wid); serr == nil {
		c.peer.Invoke(func() {
			if serr := c.send(comm.NodeID(wid), rpc.CancelPayload{ID: id}); serr != nil {
				_ = serr // worker unreachable: eviction will finalize the cancel
			}
		})
	}
	return st, nil
}

// Workers returns a snapshot of the registered workers for GET /workers.
func (c *Control) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, WorkerInfo{
			ID:     int64(ws.id),
			Name:   ws.name,
			Addr:   ws.addr,
			Slots:  ws.slots,
			Leased: len(ws.leased),
			AgeMS:  now.Sub(ws.lastSeen).Milliseconds(),
		})
	}
	return out
}

// HandleJoin is the HTTP bootstrap (POST /workers/join): it assigns the
// caller a node identity and tells it where to dial and how often to
// heartbeat. The rpc attachment itself is the worker's first heartbeat.
func (c *Control) HandleJoin(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		http.Error(w, "control shutting down", http.StatusServiceUnavailable)
		return
	}
	id := c.nextID
	c.nextID++
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(JoinResponse{
		ID:          int64(id),
		Control:     c.peer.Addr(),
		HeartbeatMS: c.heartbeat.Milliseconds(),
		Misses:      c.misses,
	}); err != nil {
		_ = err // client went away mid-response
	}
}

// Close stops the monitor and the rpc listener. Outstanding leases are
// left to the runner's shutdown semantics (late results fence as stale).
func (c *Control) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	err := c.peer.Close()
	// The peer is closed, so no handler is left to admit or evict: whoever
	// is still registered leaves the process-wide gauge with the control.
	c.mu.Lock()
	fm().workers.Add(-float64(len(c.workers)))
	clear(c.workers)
	c.mu.Unlock()
	return err
}
