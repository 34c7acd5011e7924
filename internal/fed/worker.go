package fed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"aergia/internal/comm"
	"aergia/internal/obs"
	"aergia/internal/rpc"
	"aergia/internal/runner"
)

// WorkerConfig configures one worker daemon.
type WorkerConfig struct {
	// ControlURL is the control daemon's HTTP base URL (the -join flag),
	// e.g. "http://127.0.0.1:8080".
	ControlURL string
	// Name is the worker's display name (metrics label, lease owner).
	Name string
	// Addr is the worker's rpc listen address ("127.0.0.1:0" by default).
	Addr string
	// Slots is how many jobs the worker executes concurrently
	// (default GOMAXPROCS).
	Slots int
	// Execute runs one job (default runner.ExecuteJob). Tests substitute
	// gated or counting executors.
	Execute func(context.Context, runner.Job) (json.RawMessage, error)
	// Client performs the join request (default http.DefaultClient).
	Client *http.Client
}

// Worker is the executing side of a federation: it joins a control
// daemon, pulls leases, runs them through the ordinary executor, and
// reports results and live round events back.
type Worker struct {
	cfg       WorkerConfig
	id        comm.NodeID
	peer      *rpc.Peer
	heartbeat time.Duration

	mu      sync.Mutex
	active  map[string]context.CancelFunc // the leases executing, by job
	stopped bool

	// ask orders the worker's lease requests. beat and report each read
	// how many slots are free and send it as one step under it, so the
	// control reads the requests in the order they were read and the last
	// one it reads is current. OnMessage never takes it.
	ask sync.Mutex

	admitted  chan struct{} // closed by the first grant: the attach beat's ack
	stop      chan struct{}
	lost      chan struct{}
	admitOnce sync.Once
	loseOnce  sync.Once
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// Join bootstraps a worker: POST /workers/join for an identity, listen on
// the rpc transport under it, attach with a heartbeat — which is also the
// first lease request, for every slot — and start the heartbeat loop. It
// returns once the control has answered that beat, so the worker is
// registered (and may already be executing); a control that stays silent
// for a heartbeat interval is left to the heartbeats, which re-admit.
func Join(cfg WorkerConfig) (*Worker, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("worker-%d", time.Now().UnixNano()%100000)
	}
	if cfg.Execute == nil {
		cfg.Execute = runner.ExecuteJob
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}

	resp, err := client.Post(cfg.ControlURL+"/workers/join", "application/json", nil)
	if err != nil {
		return nil, fmt.Errorf("fed: join %s: %w", cfg.ControlURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fed: join %s: %s", cfg.ControlURL, resp.Status)
	}
	var jr JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return nil, fmt.Errorf("fed: join response: %w", err)
	}
	if jr.HeartbeatMS <= 0 || jr.Control == "" {
		return nil, fmt.Errorf("fed: join response incomplete: %+v", jr)
	}

	w := &Worker{
		cfg:       cfg,
		id:        comm.NodeID(jr.ID),
		heartbeat: time.Duration(jr.HeartbeatMS) * time.Millisecond,
		active:    make(map[string]context.CancelFunc),
		admitted:  make(chan struct{}),
		stop:      make(chan struct{}),
		lost:      make(chan struct{}),
	}
	peer, err := rpc.Listen(w.id, cfg.Addr, w)
	if err != nil {
		return nil, fmt.Errorf("fed: worker listen: %w", err)
	}
	w.peer = peer
	peer.AddRoute(rpc.ControlID, jr.Control)
	if err := w.beat(); err != nil {
		if cerr := peer.Close(); cerr != nil {
			_ = cerr
		}
		return nil, fmt.Errorf("fed: attach: %w", err)
	}
	select {
	case <-w.admitted:
	case <-time.After(w.heartbeat):
	}
	w.wg.Add(1)
	go w.heartbeatLoop()
	return w, nil
}

// ID returns the node identity the control assigned.
func (w *Worker) ID() comm.NodeID { return w.id }

// Name returns the worker's display name.
func (w *Worker) Name() string { return w.cfg.Name }

// Addr returns the worker's rpc listen address.
func (w *Worker) Addr() string { return w.peer.Addr() }

// Active returns how many leases the worker is executing right now.
func (w *Worker) Active() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.active)
}

// Lost is closed if the control tells the worker to go away (Bye), so the
// daemon main can exit and rejoin instead of spinning uselessly.
func (w *Worker) Lost() <-chan struct{} { return w.lost }

func (w *Worker) send(payload any) error {
	return w.peer.Send(comm.Message{To: rpc.ControlID, Kind: comm.KindControl, Payload: payload})
}

// free is how many more jobs the worker can run: its lease request.
// Callers hold w.ask, and send what it returns before they let go.
func (w *Worker) free() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cfg.Slots - len(w.active)
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if err := w.beat(); err != nil {
				_ = err // control briefly unreachable: keep beaconing
			}
		}
	}
}

// beat sends one heartbeat: liveness, the identity a control that does not
// know the worker admits it by, and the lease request again, in case the
// control lost the one it held with its worker table (restart, eviction).
func (w *Worker) beat() error {
	w.ask.Lock()
	defer w.ask.Unlock()
	return w.send(rpc.HeartbeatPayload{Name: w.cfg.Name, Addr: w.peer.Addr(), Slots: w.cfg.Slots, Want: w.free()})
}

// OnMessage handles control→worker traffic (grants, cancels, bye).
func (w *Worker) OnMessage(_ comm.Env, msg comm.Message) {
	switch p := msg.Payload.(type) {
	case rpc.LeaseGrantPayload:
		w.admitOnce.Do(func() { close(w.admitted) })
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return // shutting down: leases expire back to the queue via Bye/timeout
		}
		for _, l := range p.Leases {
			var job runner.Job
			if err := json.Unmarshal(l.Spec, &job); err != nil {
				// A spec this worker cannot decode (version skew): report it
				// failed so the job doesn't wait for a heartbeat timeout.
				go w.report(l.ID, l.Seq, runner.Record{Status: runner.StatusFailed,
					Error: fmt.Sprintf("worker %s: decode spec: %v", w.cfg.Name, err)})
				continue
			}
			ctx, cancel := context.WithCancel(context.Background())
			w.active[l.ID] = cancel
			// Added under w.mu with stopped false: Close's Wait counts it.
			w.wg.Add(1)
			go w.run(l, job, ctx)
		}
		w.mu.Unlock()
	case rpc.CancelPayload:
		w.mu.Lock()
		cancel := w.active[p.ID]
		w.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	case rpc.ByePayload:
		w.loseOnce.Do(func() { close(w.lost) })
	}
}

// run executes one lease through runner.Run, the code a local slot runs
// its leases with: live round events are forwarded to the control as they
// happen, by a subscription the job's first event starts, so a job that
// publishes none pays for neither subscription nor goroutine. They all
// precede the terminal record, which echoes the lease's fencing sequence.
func (w *Worker) run(l rpc.Lease, job runner.Job, ctx context.Context) {
	defer w.wg.Done()
	stream := obs.NewRoundStream()
	var fwg sync.WaitGroup
	stream.OnFirstEvent(func() {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			w.forward(l.ID, stream)
		}()
	})
	rec := runner.Run(ctx, job, stream, w.cfg.Execute)
	stream.Close()
	fwg.Wait()

	w.mu.Lock()
	if cancel := w.active[l.ID]; cancel != nil {
		delete(w.active, l.ID)
		cancel()
	}
	w.mu.Unlock()
	w.report(l.ID, l.Seq, rec)
}

// forward sends the control job id's events from stream until it closes.
func (w *Worker) forward(id string, stream *obs.RoundStream) {
	ch, unsub := stream.Subscribe(64)
	defer unsub()
	for ev := range ch {
		b, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		if err := w.send(rpc.EventPayload{ID: id, Event: b}); err != nil {
			_ = err // events are best-effort observability
		}
	}
}

// report sends one terminal record to the control, with the lease request
// for the slots free now. A record over the wire's cap for a result is
// reported failed instead, naming the cap, so the job does not wait out a
// heartbeat timeout to be run again. A send failure is survivable: the
// control declares this worker dead after the heartbeat timeout and
// requeues the job.
func (w *Worker) report(id string, seq uint64, rec runner.Record) {
	w.ask.Lock()
	defer w.ask.Unlock()
	p := rpc.ResultPayload{
		ID: id, Seq: seq, Status: string(rec.Status),
		ElapsedNS: rec.Elapsed.Nanoseconds(), Error: rec.Error, Result: rec.Result, Want: w.free(),
	}
	err := w.send(p)
	if errors.Is(err, rpc.ErrFrameTooLarge) {
		p.Status, p.Result = string(runner.StatusFailed), nil
		p.Error = fmt.Sprintf("worker %s: %v", w.cfg.Name, err)
		err = w.send(p)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fed: worker %s: report %s: %v\n", w.cfg.Name, id, err)
	}
}

// Close leaves the federation gracefully: a Bye tells the control to
// requeue this worker's leases now (rather than after the heartbeat
// timeout), running jobs are canceled, and the rpc listener shuts down.
func (w *Worker) Close() error {
	w.stopOnce.Do(func() {
		w.mu.Lock()
		w.stopped = true
		cancels := make([]context.CancelFunc, 0, len(w.active))
		for _, cancel := range w.active {
			cancels = append(cancels, cancel)
		}
		w.mu.Unlock()
		if err := w.send(rpc.ByePayload{Reason: "shutdown"}); err != nil {
			_ = err // control already gone; timeout-based requeue covers it
		}
		close(w.stop)
		for _, cancel := range cancels {
			cancel()
		}
	})
	w.wg.Wait()
	return w.peer.Close()
}

// Kill simulates an abrupt worker death for tests: no Bye, no cancels —
// the transport just goes dark, exactly like a SIGKILL, and the control
// must recover via the heartbeat timeout.
func (w *Worker) Kill() {
	w.stopOnce.Do(func() {
		w.mu.Lock()
		w.stopped = true
		w.mu.Unlock()
		close(w.stop)
	})
	if err := w.peer.Close(); err != nil {
		_ = err
	}
}
