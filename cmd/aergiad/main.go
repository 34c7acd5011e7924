// Command aergiad is the experiment service daemon: it accepts experiment
// jobs and parameter sweeps over HTTP, schedules them on a bounded set of
// worker slots (all compute shares the process-wide compute lanes), and
// persists every result to an append-only JSONL store. Restarting the
// daemon on the same store resumes interrupted sweeps without recomputing
// completed jobs.
//
// Usage:
//
//	aergiad -addr :8080 -store aergiad.jsonl -jobs 2
//
// Every daemon is also a federation control plane (DESIGN.md §13): worker
// daemons started with -worker join it over HTTP, pull job leases over the
// rpc transport, and stream results back. A control that should never
// execute locally runs with -jobs -1:
//
//	aergiad -addr :8080 -store aergiad.jsonl -jobs -1   # control
//	aergiad -worker -join http://ctrl:8080 -name w1     # workers
//
// API:
//
//	POST /jobs        {"experiment":"fig6","options":{"quick":true,"seed":2}}
//	POST /jobs        {"sweep":{"experiments":["fig6","fig7"],"seeds":[1,2,3]}}
//	                  (429 + Retry-After when the queue is at -queue-max)
//	GET  /jobs        list jobs; ?status=done&experiment=fig6 filters
//	GET  /jobs/{id}   one job with its result record
//	GET  /jobs/{id}/events  live round progress over SSE ("event: round",
//	                  one obs.RoundEvent JSON per data line; "event: done"
//	                  when the job finishes)
//	DELETE /jobs/{id} cancel a job wherever it is (queued, running locally,
//	                  or leased to a worker)
//	POST /workers/join   worker bootstrap (identity + rpc address)
//	GET  /workers     registered workers with lease counts
//	GET  /healthz     liveness + queue counters
//	GET  /metrics     Prometheus text exposition (runner queue, per-worker
//	                  federation counters, bandwidth ledger, ...)
//	GET  /debug/flight   recent span/fault events from the flight recorder (JSON)
//	GET  /debug/pprof/*  runtime profiles (opt-in via -pprof)
//
// SIGQUIT dumps the flight recorder and all goroutine stacks to stderr and
// exits — the post-mortem for a wedged run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"iter"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"aergia/internal/experiments"
	"aergia/internal/fed"
	"aergia/internal/obs"
	"aergia/internal/runner"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		store     = flag.String("store", "aergiad.jsonl", "append-only JSONL result store path")
		jobs      = flag.Int("jobs", 0, "concurrent job slots (0 = GOMAXPROCS, -1 = none: pure control plane)")
		queueMax  = flag.Int("queue-max", 0, "max queued jobs before POST /jobs returns 429 (0 = unbounded)")
		heartbeat = flag.Duration("heartbeat", 2*time.Second, "federation heartbeat interval")
		misses    = flag.Int("misses", 3, "missed heartbeats before a worker's leases are requeued")
		rpcAddr   = flag.String("rpc-addr", "127.0.0.1:0", "federation rpc listen address")
		worker    = flag.Bool("worker", false, "run as a worker daemon: join a control daemon and execute its leases")
		join      = flag.String("join", "", "control daemon base URL to join (worker mode), e.g. http://host:8080")
		name      = flag.String("name", "", "worker display name (default host-pid)")
		withPprof = flag.Bool("pprof", false, "serve /debug/pprof/* runtime profiles")
	)
	flag.Parse()
	var err error
	if *worker {
		err = serveWorker(*join, *name, *rpcAddr, *jobs)
	} else {
		err = serve(daemonConfig{
			addr: *addr, store: *store, jobs: *jobs, queueMax: *queueMax,
			heartbeat: *heartbeat, misses: *misses, rpcAddr: *rpcAddr,
			pprof: *withPprof,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aergiad:", err)
		os.Exit(1)
	}
}

// serveWorker runs the daemon in worker mode: no HTTP API and no store —
// it joins the control daemon at joinURL, executes the leases it is
// granted, and exits on SIGINT/SIGTERM (telling the control to requeue
// anything unfinished) or when the control dismisses it.
func serveWorker(joinURL, name, rpcAddr string, slots int) error {
	if joinURL == "" {
		return errors.New("-worker requires -join <control base URL>")
	}
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if slots < 0 {
		return errors.New("-jobs -1 makes no sense for a worker (it exists to execute)")
	}
	w, err := fed.Join(fed.WorkerConfig{ControlURL: joinURL, Name: name, Addr: rpcAddr, Slots: slots})
	if err != nil {
		return err
	}
	log.Printf("aergiad: worker %s (node %d) joined %s, rpc %s", w.Name(), w.ID(), joinURL, w.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	select {
	case <-quit:
		log.Printf("aergiad: SIGQUIT, dumping flight recorder and stacks")
		dumpPostMortem()
		os.Exit(2)
		return nil
	case <-w.Lost():
		if cerr := w.Close(); cerr != nil {
			_ = cerr
		}
		return errors.New("dismissed by the control daemon (it restarted?); rejoin")
	case <-ctx.Done():
		log.Printf("aergiad: worker shutting down")
		return w.Close()
	}
}

// daemonConfig is the flag set of the default (control) mode.
type daemonConfig struct {
	addr      string
	store     string
	jobs      int
	queueMax  int
	heartbeat time.Duration
	misses    int
	rpcAddr   string
	pprof     bool
}

func serve(cfg daemonConfig) error {
	st, err := runner.Open(cfg.store)
	if err != nil {
		return err
	}
	defer st.Close()
	r := runner.New(st, cfg.jobs, runner.WithQueueLimit(cfg.queueMax))
	// Bounded shutdown: give in-flight jobs a grace period, then exit
	// anyway — unfinished work was never persisted, so the next daemon
	// life resumes it from the store. Waiting out a full-scale experiment
	// here would hold SIGTERM hostage for minutes (and get the process
	// SIGKILLed by a supervisor regardless).
	defer func() {
		closed := make(chan struct{})
		go func() { r.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			log.Printf("aergiad: abandoning in-flight jobs after 30s grace")
		}
	}()
	log.Printf("aergiad: store %s (%d records, %d lines skipped), %d job slots",
		st.Path(), st.Len(), st.Skipped(), r.Slots())

	ctrl, err := fed.NewControl(r, fed.ControlConfig{
		Addr: cfg.rpcAddr, Heartbeat: cfg.heartbeat, Misses: cfg.misses,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ctrl.Close(); cerr != nil {
			log.Printf("aergiad: control close: %v", cerr)
		}
	}()
	log.Printf("aergiad: federation control on rpc %s (heartbeat %s, %d misses)",
		ctrl.Addr(), cfg.heartbeat, cfg.misses)

	srv := &http.Server{
		Addr:    cfg.addr,
		Handler: newServer(r, st, ctrl, cfg.pprof),
		// Requests and responses are small JSON; generous deadlines still
		// stop a slow or stalled client from pinning a connection forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGQUIT is the post-mortem trigger: installing a handler replaces
	// Go's default stack dump, so re-emit the stacks ourselves after the
	// flight recorder and exit with the conventional status.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		<-quit
		log.Printf("aergiad: SIGQUIT, dumping flight recorder and stacks")
		dumpPostMortem()
		os.Exit(2)
	}()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("aergiad: listening on %s", cfg.addr)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("aergiad: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// server is the HTTP facade over a runner, its store, and (optionally)
// the federation control plane.
type server struct {
	runner *runner.Runner
	store  *runner.Store
	ctrl   *fed.Control
	start  time.Time
}

// newServer builds the daemon's HTTP handler; split from serve so tests
// can mount it on httptest servers. ctrl may be nil (a runner-only test
// server): the federation endpoints then report the control as absent and
// DELETE falls back to local cancellation. The pprof endpoints are
// opt-in: the daemon may face a shared network, and profiles leak more
// than metrics.
func newServer(r *runner.Runner, st *runner.Store, ctrl *fed.Control, withPprof bool) http.Handler {
	s := &server{runner: r, store: st, ctrl: ctrl, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.Handler(obs.Default))
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /workers/join", s.handleJoin)
	mux.HandleFunc("GET /workers", s.handleWorkers)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeJobs writes the body writeJSON writes for {"jobs": the states of
// jobs}, with "error": err beside it if err is not nil, one job at a time:
// no buffer grows to the size of the body, which for a long sweep or
// history would then stay in encoding/json's pool.
func writeJobs(w http.ResponseWriter, status int, err error, jobs iter.Seq[*runner.JobState]) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(newlineTrimmer{w})
	enc.SetEscapeHTML(false)
	// A write that fails fails the next Encode too, which ends the walk;
	// the writes around the jobs have nothing left to stop.
	head := `{"jobs":[`
	if err != nil {
		io.WriteString(w, `{"error":`)
		_ = enc.Encode(err.Error())
		head = `,"jobs":[`
	}
	io.WriteString(w, head)
	sep := ""
	for st := range jobs {
		st.Result = nil // the list stays light; results via GET /jobs/{id}
		io.WriteString(w, sep)
		if enc.Encode(st) != nil {
			break
		}
		sep = ","
	}
	io.WriteString(w, "]}\n")
}

// newlineTrimmer passes on each value a json.Encoder writes without the
// newline that ends it.
type newlineTrimmer struct{ w io.Writer }

func (t newlineTrimmer) Write(p []byte) (int, error) {
	if _, err := t.w.Write(p[:len(p)-1]); err != nil {
		return 0, err
	}
	return len(p), nil
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleHealthz reports liveness and the job counts by status, which the
// runner keeps as jobs move: O(1) however many jobs the daemon has seen.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(s.start),
		"slots":     s.runner.Slots(),
		"jobs":      s.runner.Counts(),
		"store":     s.store.Path(),
		"records":   s.store.Len(),
	}
	if s.ctrl != nil {
		body["workers"] = len(s.ctrl.Workers())
		body["leases"] = s.runner.LeaseCount()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleJoin bootstraps a worker daemon into the federation.
func (s *server) handleJoin(w http.ResponseWriter, req *http.Request) {
	if s.ctrl == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("federation control plane disabled"))
		return
	}
	s.ctrl.HandleJoin(w, req)
}

// handleWorkers lists the registered worker daemons.
func (s *server) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	workers := []fed.WorkerInfo{}
	if s.ctrl != nil {
		workers = append(workers, s.ctrl.Workers()...)
	}
	writeJSON(w, http.StatusOK, map[string]any{"workers": workers})
}

// handleCancel is DELETE /jobs/{id}: cancellation wherever the job is —
// dropped from the queue, context-canceled locally, or propagated to the
// owning worker. 404 for unknown IDs, 409 for already-terminal jobs.
func (s *server) handleCancel(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	var (
		st  runner.JobState
		err error
	)
	if s.ctrl != nil {
		st, err = s.ctrl.CancelJob(id)
	} else {
		st, _, err = s.runner.Cancel(id)
	}
	st.Result = nil
	switch {
	case errors.Is(err, runner.ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, runner.ErrJobFinished):
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "job": st})
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		// Accepted, not completed: a running job finalizes asynchronously
		// when its executor notices the canceled context.
		writeJSON(w, http.StatusAccepted, map[string]any{"job": st})
	}
}

// submitRequest is the POST /jobs body: exactly one of a single job
// (experiment + options) or a sweep grid.
type submitRequest struct {
	Experiment string              `json:"experiment,omitempty"`
	Options    experiments.Options `json:"options,omitzero"`
	Sweep      *runner.Sweep       `json:"sweep,omitempty"`
}

func (s *server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var body submitRequest
	// A submission is a job spec or a sweep grid — kilobytes at most;
	// bound the untrusted body so a streamed giant one cannot balloon the
	// daemon's memory.
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errors.New("trailing content after the request object"))
		return
	}
	var jobs []runner.Job
	switch {
	case body.Sweep != nil && body.Experiment != "":
		writeError(w, http.StatusBadRequest, errors.New("give either experiment or sweep, not both"))
		return
	case body.Sweep != nil && body.Options != (experiments.Options{}):
		// Same contract as the CLI's -sweep flag conflict: silently
		// dropping the options would run the wrong grid.
		writeError(w, http.StatusBadRequest, errors.New("a sweep defines its own options axes; drop the options field"))
		return
	case body.Sweep != nil:
		expanded, err := body.Sweep.Expand()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		jobs = expanded
	case body.Experiment != "":
		job, err := runner.NewJob(body.Experiment, body.Options)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		jobs = []runner.Job{job}
	default:
		writeError(w, http.StatusBadRequest, errors.New("missing experiment or sweep"))
		return
	}
	states, err := s.runner.SubmitAll(jobs)
	status := http.StatusAccepted
	if err != nil {
		if !errors.Is(err, runner.ErrQueueFull) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		// Backpressure, not failure: the client should retry once the
		// workers drain the queue. Jobs admitted before the bound hit are
		// reported; resubmitting the whole batch later is idempotent and
		// picks up exactly the refused remainder.
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	}
	writeJobs(w, status, err, func(yield func(*runner.JobState) bool) {
		for i := range states {
			if !yield(&states[i]) {
				return
			}
		}
	})
}

func (s *server) handleList(w http.ResponseWriter, req *http.Request) {
	status := req.URL.Query().Get("status")
	if status != "" {
		// Pollers of long churn sweeps filter on status; a typo silently
		// matching nothing would read as "all jobs done", so unknown
		// statuses are a loud 400 instead.
		switch runner.Status(status) {
		case runner.StatusQueued, runner.StatusRunning, runner.StatusLeased,
			runner.StatusDone, runner.StatusFailed, runner.StatusCanceled:
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf(
				"unknown status %q (allowed: %s, %s, %s, %s, %s, %s)", status,
				runner.StatusQueued, runner.StatusRunning, runner.StatusLeased,
				runner.StatusDone, runner.StatusFailed, runner.StatusCanceled))
			return
		}
	}
	writeJobs(w, http.StatusOK, nil, func(yield func(*runner.JobState) bool) {
		s.runner.Each(runner.Status(status), req.URL.Query().Get("experiment"), yield)
	})
}

// handleGet serves one job with its result: live jobs from the runner,
// finished ones (of this daemon life or an earlier one) from the store.
func (s *server) handleGet(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if st, ok := s.runner.Result(id); ok {
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
}

// handleEvents streams a job's live round progress as Server-Sent Events:
// one "event: round" with an obs.RoundEvent JSON body per completed round
// (replaying rounds already done), a comment heartbeat while rounds are in
// flight, and "event: done" when the job ends.
func (s *server) handleEvents(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	events, cancel, err := s.runner.Subscribe(id, 64)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	// The server's ReadTimeout/WriteTimeout are sized for small JSON
	// bodies; a live stream legitimately outlives both, so lift the
	// deadlines for this connection only. The read deadline matters even
	// though the stream only writes: net/http keeps reading the connection
	// in the background to detect client aborts, and when the read
	// deadline (armed at accept time from ReadTimeout) expires, that
	// background read fails and cancels the request context — killing
	// every SSE stream mid-flight at the same age regardless of activity.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})
	_ = rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-req.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev, open := <-events:
			if !open {
				fmt.Fprint(w, "event: done\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: round\ndata: %s\n\n", data); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// handleFlight serves the flight recorder's recent span/fault events — the
// always-on diagnostic ring every traced run feeds.
func (s *server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	events := obs.FlightDefault.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(events), "events": events})
}

// dumpPostMortem writes the flight recorder and all goroutine stacks to
// stderr.
func dumpPostMortem() {
	obs.FlightDefault.Dump(os.Stderr)
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	_, _ = os.Stderr.Write(buf[:n])
}
