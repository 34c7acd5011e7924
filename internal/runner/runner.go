package runner

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"aergia/internal/experiments"
	"aergia/internal/obs"
)

// JobState is a point-in-time snapshot of one job in the runner — the
// same shape as a store Record, shared so a field added to one can never
// silently vanish from the other.
type JobState = Record

// Sentinel errors of the scheduling surface. They are wrapped with job
// context; match with errors.Is.
var (
	// ErrQueueFull is returned by Submit when the queue is at its
	// configured admission bound (WithQueueLimit).
	ErrQueueFull = errors.New("runner: job queue is full")
	// ErrCanceled is the terminal error of a job whose context was
	// canceled; executors return it (or any error while their context is
	// canceled) to mark the job canceled rather than failed.
	ErrCanceled = errors.New("runner: job canceled")
	// ErrUnknownJob is returned for job IDs the runner has never seen.
	ErrUnknownJob = errors.New("runner: unknown job")
	// ErrJobFinished is returned by Cancel for jobs already in a terminal
	// state.
	ErrJobFinished = errors.New("runner: job already finished")
	// ErrStaleLease is returned by Complete when the lease sequence does
	// not match — the worker was declared dead and the job requeued (or
	// finished by someone else) while the result was in flight.
	ErrStaleLease = errors.New("runner: stale lease")
)

// Runner schedules jobs over a fixed number of local worker slots and a
// lease-based pull interface for remote workers (internal/fed), and
// persists every outcome to the result store.
//
// One execution path: a job starts only by being leased, and runs only
// through Run. A local slot is a lease holder on the runner's own lease
// table with no transport; its lease holds the job's cancel and has no
// fencing sequence, and its job reads "running" with no worker, where a
// remote owner's reads "leased".
//
// Concurrency budget: the slots bound how many experiments run at once
// locally. Inside them, client training runs on the process-wide compute
// lanes (internal/fl/lane.go): at most GOMAXPROCS training steps execute at
// any moment however many jobs are in flight, so N concurrent jobs share
// the cores instead of oversubscribing them N times. A job runs its
// experiment's independent FL runs side by side (internal/experiments,
// GOMAXPROCS at a time on sim, one at a time on tcp), so each job may hold
// up to GOMAXPROCS run clocks, and what those do on their own goroutines
// (the event loop, aggregation, codecs) is bounded by slots × GOMAXPROCS;
// training stays bounded by the lanes.
//
// Dedup/resume: Submit answers repeats of completed work from the store
// without recomputing — submitting the same sweep to a restarted runner
// re-runs only the jobs that are missing, failed, or canceled.
//
// Where a job lives: a queued, leased or running job is a JobState in the
// runner. Once its terminal record is in the store, the store's index is
// its only in-memory state (under 0.1 kB a job with its order entry,
// Store) and Get, Result, List, Cancel and Subscribe read it there, as
// they do for jobs of an earlier life; its event stream is dropped too
// unless it published events a late subscriber still replays (see
// stream). Without a store, or when the terminal record could not be
// written, the runner keeps the job.
//
// Leases: Lease hands queued jobs to a named remote owner; Complete
// finishes them with the result the owner reported, and Requeue returns a
// lost owner's jobs to the front of the queue in the order they were
// leased. Every remote lease carries a fencing sequence number so a
// result from an expired lease is dropped instead of double-finishing a
// job. A lease lives on its live job, in memory only: the store holds
// terminal records alone, each naming the worker that produced it, and a
// restart forgets the leases as it forgets the queue.
type Runner struct {
	store    *Store
	token    uint32 // names this runner's jobs in the store's index
	execute  func(context.Context, Job) (json.RawMessage, error)
	slots    int
	maxQueue int

	// mu is taken before the store's lock, never after it: the runner
	// reads and appends to its store under mu, and the store never calls
	// back.
	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobQueue
	ready    chan struct{}               // see Ready
	jobs     map[string]*liveJob         // see Runner
	livePeak int                         // len(jobs) at most, since shrinkLive
	order    []orderKey                  // every job submitted here, for List
	exps     []string                    // the experiments of order, by orderKey.exp
	expOf    map[string]uint32           // exps' indexes
	counts   map[Status]int              // jobs of order by status, for Counts
	streams  map[string]*obs.RoundStream // see stream
	leaseSeq uint64
	closed   bool
	wg       sync.WaitGroup
}

// orderKey is a job ID as order holds it: the digest of its idKey and
// its experiment's index in exps. Submit makes only IDs of Job.ID's form.
type orderKey struct {
	digest [12]byte
	exp    uint32
}

// orderKey returns k as order holds it, interning its experiment. Callers
// hold r.mu.
func (r *Runner) orderKey(k idKey) orderKey {
	x, ok := r.expOf[k.experiment]
	if !ok {
		x = uint32(len(r.exps))
		r.exps = append(r.exps, k.experiment)
		r.expOf[k.experiment] = x
	}
	return orderKey{k.digest, x}
}

// liveJob is a job the runner holds: queued, leased, running, or finished
// with a record the store does not hold. Its job is fixed at admission and
// never written again, so a lease holder reads it with no lock; the rest
// is guarded by r.mu. The lease's fields are set by grant and hold while
// the job reads leased or running, landing included, which is what Wait
// waits out.
type liveJob struct {
	job    Job // its ID cached
	status Status
	worker string // the lease's owner: "" for a local slot
	// The lease.
	seq      uint64             // a remote lease's fencing sequence
	cancel   context.CancelFunc // a local slot's run; nil for a remote owner
	canceled bool               // Cancel asked: Requeue finalizes, not requeues
	landing  bool               // its result is being persisted
	// The outcome of a finished job the runner keeps.
	elapsed time.Duration
	errText string
	result  json.RawMessage
}

// state is a snapshot of st. Callers hold r.mu.
func (st *liveJob) state() JobState {
	return JobState{ID: st.job.id, Experiment: st.job.Experiment, Options: st.job.Options,
		Status: st.status, Elapsed: st.elapsed, Error: st.errText, Worker: st.worker, Result: st.result}
}

// set makes rec's status and outcome st's; its identity stays the job's.
// Callers hold r.mu.
func (st *liveJob) set(rec Record) {
	st.status, st.worker, st.elapsed, st.errText, st.result = rec.Status, rec.Worker, rec.Elapsed, rec.Error, rec.Result
}

// Leased is one job granted to a remote owner, with the fencing sequence
// its completion must echo. Job is the runner's own: it does not change
// while the runner holds the job, and the holder must not write it.
type Leased struct {
	Job *Job
	Seq uint64
}

// Option configures a Runner.
type Option func(*Runner)

// WithExecutor replaces the job executor (which runs the experiment and
// marshals its record). The context is canceled when the job is canceled;
// executors should return promptly with ErrCanceled (or any error) once
// it is done. Tests use this to count or stub executions.
func WithExecutor(fn func(context.Context, Job) (json.RawMessage, error)) Option {
	return func(r *Runner) { r.execute = fn }
}

// WithQueueLimit bounds how many jobs may wait in the queue: Submit
// returns ErrQueueFull beyond it, which the daemon surfaces as 429 +
// Retry-After. Admission control, not a correctness bound — resubmitting
// the same sweep later is idempotent. 0 (the default) is unbounded.
func WithQueueLimit(n int) Option {
	return func(r *Runner) { r.maxQueue = n }
}

// New starts a runner with the given local worker-slot count (0 =
// GOMAXPROCS, negative = no local execution at all — a pure control
// plane draining only through Lease) writing to store (nil = no
// persistence). Close releases the slots.
func New(store *Store, slots int, opts ...Option) *Runner {
	if slots == 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	if slots < 0 {
		slots = 0
	}
	r := &Runner{
		store:   store,
		token:   store.newLister(),
		slots:   slots,
		execute: ExecuteJob,
		ready:   make(chan struct{}, 1),
		jobs:    make(map[string]*liveJob),
		expOf:   make(map[string]uint32),
		counts:  make(map[Status]int),
		streams: make(map[string]*obs.RoundStream),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, opt := range opts {
		opt(r)
	}
	r.wg.Add(r.slots)
	for i := 0; i < r.slots; i++ {
		go r.slot()
	}
	return r
}

// ExecuteJob runs the experiment and returns its canonical record bytes —
// the same bytes `aergia -experiment <id> -json` prints for these options.
// Cancellation is by abandonment: the experiment registry has no
// cooperative cancellation points inside a run, so a canceled context
// returns ErrCanceled immediately while the run finishes in the
// background with its output discarded (its event stream is closed by the
// caller, so late publishes are no-ops). The leaked compute drains
// through the shared tensor pool and cannot oversubscribe cores.
func ExecuteJob(ctx context.Context, j Job) (json.RawMessage, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	type outcome struct {
		result json.RawMessage
		err    error
	}
	out := make(chan outcome, 1)
	go func() {
		// A panic must not escape this goroutine (it would kill the
		// process, not the job): record it, dump the flight recorder, and
		// surface it as the job's failure.
		defer func() {
			if p := recover(); p != nil {
				out <- outcome{nil, panicked(j, p)}
			}
		}()
		rec, err := experiments.Run(j.Experiment, j.Options)
		if err != nil {
			out <- outcome{nil, err}
			return
		}
		b, err := rec.Marshal()
		out <- outcome{b, err}
	}()
	select {
	case o := <-out:
		return o.result, o.err
	case <-ctx.Done():
		return nil, ErrCanceled
	}
}

// Run executes job, its round events going to events, and returns the
// status, elapsed time, error and result of its terminal record. A local
// slot and a remote worker (internal/fed) both run their leases through
// it. A panic in execute fails the job instead of losing the slot, and an
// error while ctx is done, or ErrCanceled, is a cancel rather than a
// failure, so resubmission and metrics stay honest.
func Run(ctx context.Context, job Job, events *obs.RoundStream,
	execute func(context.Context, Job) (json.RawMessage, error)) (rec Record) {
	job.Options.Events = events // not in the canonical encoding
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			rec = Record{Status: StatusFailed, Error: panicked(job, p).Error()}
		}
		rec.Elapsed = time.Since(start)
	}()
	result, err := execute(ctx, job)
	switch {
	case err == nil:
		return Record{Status: StatusDone, Result: result}
	case errors.Is(err, ErrCanceled) || ctx.Err() != nil:
		return Record{Status: StatusCanceled, Error: err.Error()}
	}
	return Record{Status: StatusFailed, Error: err.Error()}
}

// panicked reports job's panic p: the flight recorder gets a panic marker
// and is dumped to stderr (the last moments of message traffic before the
// blow-up, without a re-run), and the error is what the job fails with.
func panicked(job Job, p any) error {
	obs.FlightDefault.RecordPanic()
	fmt.Fprintf(os.Stderr, "runner: job %s panicked: %v\n", job.ID(), p)
	obs.FlightDefault.Dump(os.Stderr)
	return fmt.Errorf("job %s panicked: %v", job.ID(), p)
}

// Slots reports the local worker-slot count.
func (r *Runner) Slots() int { return r.slots }

// Submit enqueues one job and returns its current state. Completed work —
// whether from this process or replayed from the store — is answered
// immediately with status done; a queued, leased, or running duplicate is
// returned as-is; failed and canceled jobs are re-enqueued. ErrQueueFull
// reports that the admission bound is reached; nothing was enqueued.
func (r *Runner) Submit(job Job) (JobState, error) {
	id := job.ID()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return JobState{}, fmt.Errorf("runner: closed")
	}
	if st, ok := r.jobs[id]; ok {
		switch st.status {
		case StatusQueued, StatusRunning, StatusLeased, StatusDone:
			return st.state(), nil
		}
		// Failed or canceled: requeue, subject to admission control. The
		// job is the one admitted first, whose ID this one's equals.
		if err := r.checkQueueSpace(); err != nil {
			return st.state(), err
		}
		r.move(st.status, StatusQueued)
		st.set(Record{Status: StatusQueued})
		r.enqueue(st)
		return st.state(), nil
	}
	// Not live: the store's index holds it if it finished, here or in an
	// earlier life. The token says whether it is in order already.
	k := keyOf(id)
	rec, lister, stored := r.store.find(k, filter{})
	listed := stored && lister == r.token
	if stored && rec.Status == StatusDone {
		if !listed {
			r.store.list(k, r.token)
			r.order = append(r.order, r.orderKey(k))
			r.counts[StatusDone]++
		}
		return rec, nil
	}
	if err := r.checkQueueSpace(); err != nil {
		if listed {
			return rec, err
		}
		return JobState{}, err
	}
	if listed {
		r.move(rec.Status, StatusQueued)
	} else {
		r.order = append(r.order, r.orderKey(k))
		r.counts[StatusQueued]++
	}
	job.id = id
	st := &liveJob{job: job, status: StatusQueued}
	r.jobs[id] = st
	r.livePeak = max(r.livePeak, len(r.jobs))
	r.enqueue(st)
	return st.state(), nil
}

// move retallies one job of order from one status to another. Callers
// hold r.mu.
func (r *Runner) move(from, to Status) {
	r.counts[from]--
	r.counts[to]++
}

// Counts reports how many of the jobs List would return are in each
// status, omitting zeros: List's tally without copying a job.
func (r *Runner) Counts() map[Status]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Status]int, len(r.counts))
	for status, n := range r.counts {
		if n != 0 {
			out[status] = n
		}
	}
	return out
}

// checkQueueSpace enforces the admission bound. Callers hold r.mu.
func (r *Runner) checkQueueSpace() error {
	if r.maxQueue > 0 && r.queue.n >= r.maxQueue {
		return fmt.Errorf("%w (depth %d)", ErrQueueFull, r.queue.n)
	}
	return nil
}

// SubmitAll submits a batch (e.g. an expanded sweep) and returns the
// per-job states in order. On ErrQueueFull the states accepted so far are
// returned with the error; resubmitting the same batch later skips them.
func (r *Runner) SubmitAll(jobs []Job) ([]JobState, error) {
	out := make([]JobState, 0, len(jobs))
	for _, job := range jobs {
		st, err := r.Submit(job)
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
	return out, nil
}

// enqueue queues the live job st. Callers hold r.mu.
func (r *Runner) enqueue(st *liveJob) {
	// A retry drops the attempt before's stream, which finish closed
	// already: the retry's subscribers get a fresh one (stream).
	delete(r.streams, st.job.id)
	r.signalIfEmpty()
	r.queue.pushBack(st)
	rm().queueDepth.Inc()
	// Broadcast, not Signal: Wait and the workers share the condition
	// variable, so a single wakeup could land on a waiter that is not a
	// worker and strand the queue.
	r.cond.Broadcast()
}

// signalIfEmpty raises Ready when the job about to be queued finds the
// queue empty. Callers hold r.mu. A non-empty queue costs one comparison:
// whoever drains it sees the new job without being told.
func (r *Runner) signalIfEmpty() {
	if r.queue.n == 0 {
		select {
		case r.ready <- struct{}{}:
		default: // a signal is already pending; one is enough
		}
	}
}

// Ready delivers one coalesced signal each time a job enters an empty
// queue (Submit, or Requeue of a lost owner's leases). It is how a lease
// holder with idle capacity learns of work without polling: a Lease that
// returned fewer jobs than asked saw the queue empty, so the next job to
// arrive is guaranteed to signal. There is a single channel, so a single
// consumer (the federation control).
func (r *Runner) Ready() <-chan struct{} { return r.ready }

// requeueFront returns the previously leased job st to the head of the
// queue, keeping its stream, if it has one, so attached subscribers ride
// through the worker loss transparently. Callers hold r.mu.
func (r *Runner) requeueFront(st *liveJob) {
	r.signalIfEmpty()
	r.queue.pushFront(st)
	rm().queueDepth.Inc()
	r.cond.Broadcast()
}

// jobQueue is the runner's queue: a ring of the live jobs jobs holds, 8 B
// a job, taken from the front and added at either end in O(1). A slot a
// job leaves is cleared and an emptied queue lets go of its ring, so no
// job a burst queued stays reachable from it.
type jobQueue struct {
	ring []*liveJob // nil, or a power of two long
	head int        // the ring index of the front job
	n    int
}

// at returns the i-th job from the front.
func (q *jobQueue) at(i int) *liveJob { return q.ring[q.index(i)] }

// index is the ring index of the i-th job from the front.
func (q *jobQueue) index(i int) int { return (q.head + i) & (len(q.ring) - 1) }

// grow doubles a full ring.
func (q *jobQueue) grow() {
	if q.n < len(q.ring) {
		return
	}
	ring := make([]*liveJob, max(8, 2*len(q.ring)))
	for i := range q.n {
		ring[i] = q.at(i)
	}
	q.ring, q.head = ring, 0
}

func (q *jobQueue) pushBack(st *liveJob) {
	q.grow()
	q.ring[q.index(q.n)] = st
	q.n++
}

func (q *jobQueue) pushFront(st *liveJob) {
	q.grow()
	q.head = q.index(-1)
	q.ring[q.head] = st
	q.n++
}

// popFront takes the front of the non-empty queue.
func (q *jobQueue) popFront() *liveJob {
	st := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = q.index(1)
	if q.n--; q.n == 0 {
		*q = jobQueue{}
	}
	return st
}

// remove takes st out of the queue and reports whether it was there.
func (q *jobQueue) remove(st *liveJob) bool {
	for i := range q.n {
		if q.at(i) != st {
			continue
		}
		for ; i+1 < q.n; i++ {
			q.ring[q.index(i)] = q.at(i + 1)
		}
		q.ring[q.index(i)] = nil
		if q.n--; q.n == 0 {
			*q = jobQueue{}
		}
		return true
	}
	return false
}

// slot is one local worker slot: until Close, it leases the front job on
// the runner's own table, runs it and lands the record.
func (r *Runner) slot() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for r.queue.n == 0 && !r.closed {
			r.cond.Wait()
		}
		if r.closed && r.queue.n == 0 {
			r.mu.Unlock()
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		st := r.grant("", cancel)
		events := r.stream(st.job.id) // finish closes it
		r.mu.Unlock()

		rm().activeJobs.Inc()
		rec := Run(ctx, st.job, events, r.execute)
		rm().activeJobs.Dec()
		r.land(st, "", rec)
		cancel()
	}
}

// persist appends a terminal rec to the store and reports whether the
// store now holds it, reconciling a persistence failure into the record: a
// result that exists but did not persist is surfaced loudly as a failure
// rather than pretending the store has it. Every record the runner writes
// goes through here.
func (r *Runner) persist(rec *Record) bool {
	if r.store == nil {
		return false
	}
	perr := r.store.append(*rec, r.token)
	if perr == nil {
		return true
	}
	if rec.Status == StatusDone {
		rec.Status = StatusFailed
		rec.Error = perr.Error()
		rec.Result = nil
	} else {
		// Keep the job's own failure primary, but don't swallow the
		// signal that the store is unwritable.
		rec.Error += "; persist: " + perr.Error()
	}
	return false
}

// finish makes a live job terminal with rec, which the store holds if
// persisted, and ends its lease if it had one. The store is then the
// job's only home: the job leaves jobs, and its stream too unless it
// published events a late subscriber still replays. The runner keeps the
// job's outcome when the store does not hold rec. The stream closes in
// the same critical section that makes the status terminal: a subscriber
// whose channel closed can trust that the job already reads terminal, and
// a retry requeued via Submit can never interleave between the two (it
// would have seen a live job and returned as-is). See
// TestRunnerFailedRetry*. Callers hold r.mu.
func (r *Runner) finish(st *liveJob, rec Record, persisted bool) {
	id := st.job.id
	r.move(st.status, rec.Status)
	rm().observeFinished(rec.Status, rec.Elapsed)
	stream := r.streams[id] // nil if it never had one
	stream.Close()
	if stream.Empty() {
		delete(r.streams, id)
	}
	st.set(rec)
	st.cancel = nil
	if persisted {
		delete(r.jobs, id)
		r.shrinkLive()
	}
	r.cond.Broadcast()
}

// shrinkLive lets go of the tables a burst grew in jobs and streams once
// the live jobs have drained to an eighth of their peak: a Go map never
// shrinks, and a drained 60000-job burst would otherwise hold 6.5 MB of
// empty table for good. Callers hold r.mu.
func (r *Runner) shrinkLive() {
	if r.livePeak < 256 || len(r.jobs) > r.livePeak/8 {
		return
	}
	r.jobs = maps.Collect(maps.All(r.jobs))
	r.streams = maps.Collect(maps.All(r.streams))
	r.livePeak = len(r.jobs)
}

// Cancel requests cancellation of a job. A queued job is removed from the
// queue and finalized as canceled immediately. A running or leased job's
// lease is marked cancel-requested: a local slot's run has its context
// canceled and finalizes as canceled when the executor returns; for a
// remote lease the owner's name is returned so the caller can propagate
// the cancel over the control plane (if the owner is lost instead, Requeue
// finalizes the job as canceled). Terminal jobs return ErrJobFinished,
// unknown IDs ErrUnknownJob.
func (r *Runner) Cancel(id string) (JobState, string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.jobs[id]
	if !ok {
		if rec, ok := r.store.Meta(id); ok {
			return rec, "", fmt.Errorf("%w: %s is %s", ErrJobFinished, id, rec.Status)
		}
		return JobState{}, "", fmt.Errorf("%w %s", ErrUnknownJob, id)
	}
	switch st.status {
	case StatusDone, StatusFailed, StatusCanceled:
		return st.state(), "", fmt.Errorf("%w: %s is %s", ErrJobFinished, id, st.status)
	case StatusRunning:
		st.canceled = true
		st.cancel()
		return st.state(), "", nil
	case StatusLeased:
		st.canceled = true
		return st.state(), st.worker, nil
	}
	// Queued: it never started, finalize here.
	if r.queue.remove(st) {
		rm().queueDepth.Dec()
	}
	rec := Record{ID: id, Experiment: st.job.Experiment, Options: st.job.Options,
		Status: StatusCanceled, Error: "canceled before execution"}
	r.finish(st, rec, r.persist(&rec))
	return rec, "", nil
}

// Lease pops up to max queued jobs and grants them to the named remote
// owner, each with a fresh fencing sequence. A lease is not written to the
// store: it lives on its job in memory until the job lands, and a restart
// forgets it as it forgets the queue, so a job leased at the crash is
// resubmitted like one that was queued.
func (r *Runner) Lease(owner string, max int) []Leased {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || max <= 0 {
		return nil
	}
	n := min(max, r.queue.n)
	out := make([]Leased, 0, n)
	for range n {
		st := r.grant(owner, nil)
		r.leaseSeq++
		st.seq = r.leaseSeq
		out = append(out, Leased{Job: &st.job, Seq: st.seq})
	}
	return out
}

// grant pops the front job of the non-empty queue and leases it: to a
// local slot, which passes the cancel of its run and whose job reads
// running, or to the remote owner, whose job reads leased. Callers hold
// r.mu.
func (r *Runner) grant(owner string, cancel context.CancelFunc) *liveJob {
	st := r.queue.popFront()
	rm().queueDepth.Dec()
	status := StatusLeased
	if cancel != nil {
		status = StatusRunning
	}
	r.move(st.status, status)
	st.status, st.worker = status, owner
	st.seq, st.cancel, st.canceled, st.landing = 0, cancel, false, false
	return st
}

// Complete finishes a leased job with the outcome its owner reported. The
// record's identity fields are rebuilt from the lease (the wire is not
// trusted to name the job it was granted); seq must match the outstanding
// lease or the result is dropped with ErrStaleLease — the job was
// requeued after the owner was declared dead, and whoever holds the new
// lease owns the result. A job a local slot runs is no remote owner's to
// complete, and is stale too.
func (r *Runner) Complete(id string, seq uint64, rec Record) error {
	r.mu.Lock()
	st := r.jobs[id]
	if st == nil || st.status != StatusLeased || st.seq != seq || st.landing {
		r.mu.Unlock()
		return fmt.Errorf("%w: job %s seq %d", ErrStaleLease, id, seq)
	}
	st.landing = true
	owner := st.worker
	r.mu.Unlock()
	r.land(st, owner, rec)
	return nil
}

// land finishes the leased job st with the outcome its holder, owner,
// reported; the lease ends as the job turns terminal. The record's
// identity is the job's, whatever rec says.
func (r *Runner) land(st *liveJob, owner string, rec Record) {
	rec.ID = st.job.id
	rec.Experiment = st.job.Experiment
	rec.Options = st.job.Options
	rec.Worker = owner
	switch rec.Status {
	case StatusDone:
	case StatusCanceled:
		rec.Result = nil
	default:
		rec.Status = StatusFailed
		rec.Result = nil
	}
	persisted := r.persist(&rec)

	r.mu.Lock()
	r.finish(st, rec, persisted)
	r.mu.Unlock()
}

// Requeue takes back every lease held by the remote owner whose result is
// not landing: cancel-requested jobs finalize as canceled (the cancel beat
// the worker's death), the rest return to the front of the queue in the
// order they were leased, keeping any stream so attached subscribers ride
// through the worker loss. Returns how many jobs took each path.
func (r *Runner) Requeue(owner string) (requeued, canceled int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lost []*liveJob
	for _, st := range r.jobs {
		if st.status == StatusLeased && st.worker == owner && !st.landing {
			lost = append(lost, st)
		}
	}
	// Pushed to the front last-leased first.
	slices.SortFunc(lost, func(a, b *liveJob) int { return cmp.Compare(b.seq, a.seq) })
	for _, st := range lost {
		if st.canceled {
			rec := Record{ID: st.job.id, Experiment: st.job.Experiment, Options: st.job.Options,
				Status: StatusCanceled, Error: "canceled while leased to a lost worker"}
			r.finish(st, rec, r.persist(&rec))
			canceled++
			continue
		}
		r.move(st.status, StatusQueued)
		st.status, st.worker = StatusQueued, ""
		r.requeueFront(st)
		requeued++
	}
	r.cond.Broadcast()
	return requeued, canceled
}

// LeaseCount reports how many jobs are currently leased out to remote
// owners: the jobs that read leased.
func (r *Runner) LeaseCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[StatusLeased]
}

// PublishEvent republishes a live round event reported by a remote worker
// into the job's stream, where local subscribers (the SSE handler) pick
// it up exactly as if the job ran in-process. Unknown IDs and closed
// streams drop silently — events are observability, not state.
func (r *Runner) PublishEvent(id string, ev obs.RoundEvent) {
	r.mu.Lock()
	s := r.stream(id)
	r.mu.Unlock()
	s.Publish(ev) // nil-receiver safe
}

// stream returns job id's event stream, made on first use — a subscriber,
// a published event or a local slot's start — if the job is queued,
// leased or running; a finished job has only the one it kept for late
// subscribers. Callers hold r.mu.
func (r *Runner) stream(id string) *obs.RoundStream {
	if s := r.streams[id]; s != nil {
		return s
	}
	if st, ok := r.jobs[id]; !ok || st.status.terminal() {
		return nil
	}
	s := obs.NewRoundStream()
	r.streams[id] = s
	return s
}

// Subscribe attaches to a job's live round-event stream: the channel
// replays events published so far, then delivers live ones, and closes
// when the job finishes. By the time the channel closes, the job's state
// already reads terminal. A finished job that published nothing has no
// stream left, and neither has a job answered from the store: those
// return an immediately-closed stream, the streaming analogue of GET
// /jobs/{id} reading the store, so the two endpoints can never disagree
// about whether a job exists. The cancel function detaches early. Unknown
// job IDs error with ErrUnknownJob.
func (r *Runner) Subscribe(id string, buf int) (<-chan obs.RoundEvent, func(), error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.stream(id); s != nil {
		ch, cancel := s.Subscribe(buf)
		return ch, cancel, nil
	}
	if _, ok := r.jobs[id]; !ok {
		if _, ok := r.store.Meta(id); !ok {
			return nil, nil, fmt.Errorf("%w %s", ErrUnknownJob, id)
		}
	}
	ch := make(chan obs.RoundEvent)
	close(ch)
	return ch, func() {}, nil
}

// Get returns the state snapshot for a job ID: the runner's for a live
// job, the store's index entry for a finished one. Completed jobs carry
// their result payload only when the runner has no store; with one, the
// store is the single owner — use Result to fetch state and payload
// together.
func (r *Runner) Get(id string) (JobState, bool) {
	if st, ok := r.live(id); ok {
		return st, true
	}
	return r.store.Meta(id)
}

// Result returns the state snapshot with the result payload attached,
// reading finished jobs from the store. If the store can no longer yield
// a payload it indexed (external truncation, disk fault), its failed view
// is what Result returns.
func (r *Runner) Result(id string) (JobState, bool) {
	if st, ok := r.live(id); ok {
		return st, true
	}
	return r.store.Get(id)
}

// live returns a snapshot of the job if the runner holds it. A job the
// runner does not hold is in the store, if anywhere, and stays there: the
// caller reads it without r.mu.
func (r *Runner) live(id string) (JobState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.jobs[id]
	if !ok {
		return JobState{}, false
	}
	return st.state(), true
}

// Each calls yield with a snapshot of each job submitted to this runner
// that is in status and of experiment, an empty one matching any, in
// submission order, until yield returns false. Which jobs there are, and
// the live ones' states, are read under r.mu; the finished ones are then
// read from the store one at a time and yield is called with neither lock
// held, so a slow consumer stalls no lease or append. A finished job the
// filter drops is never built. yield must not keep the pointer.
func (r *Runner) Each(status Status, experiment string, yield func(*JobState) bool) {
	f := filter{status, experiment}
	const isLive = ^uint32(0) // an orderKey.exp no experiment has
	r.mu.Lock()
	jobs := make(map[orderKey]*liveJob, len(r.jobs))
	for id, st := range r.jobs {
		jobs[r.orderKey(keyOf(id))] = st
	}
	var live []JobState                       // the live jobs f passes
	keys := make([]orderKey, 0, len(r.order)) // isLive where the next of live goes
	for _, k := range r.order {
		st, ok := jobs[k]
		switch {
		case !ok:
			keys = append(keys, k)
		case f.match(st.status, st.job.Experiment):
			live = append(live, st.state())
			keys = append(keys, orderKey{exp: isLive})
		}
	}
	exps := r.exps // appended to, never rewritten
	r.mu.Unlock()
	// The rest finished: the store holds them, and reading it needs no
	// runner lock. A job does not leave the store once it is there.
	var rec JobState // every finished job's, one at a time
	for _, k := range keys {
		st := &rec
		if k.exp == isLive {
			st, live = &live[0], live[1:]
		} else if found, _, ok := r.store.find(idKey{digest: k.digest, experiment: exps[k.exp]}, f); ok {
			rec = found
		} else {
			continue
		}
		if !yield(st) {
			return
		}
	}
}

// List collects Each's snapshots.
func (r *Runner) List(status Status, experiment string) []JobState {
	out := []JobState{}
	r.Each(status, experiment, func(st *JobState) bool {
		out = append(out, *st)
		return true
	})
	return out
}

// filter is List's: a job passes when its status and experiment equal the
// filter's, an empty field matching any.
type filter struct {
	status     Status
	experiment string
}

func (f filter) match(status Status, experiment string) bool {
	return (f.status == "" || status == f.status) && (f.experiment == "" || experiment == f.experiment)
}

// Wait blocks until the queue is drained and no lease, local or remote, is
// outstanding: no job reads leased or running, which a job whose result is
// being persisted still does.
func (r *Runner) Wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.queue.n > 0 || r.counts[StatusLeased]+r.counts[StatusRunning] > 0 {
		r.cond.Wait()
	}
}

// Close abandons queued jobs, waits for locally running jobs to finish,
// and releases the worker slots. Submit fails afterwards. Abandoned jobs
// stay in state "queued" and were never persisted, so resubmitting them
// to a fresh runner over the same store resumes exactly where this one
// stopped — that is the shutdown story of aergiad, where draining a long
// sweep would hold the process alive for hours. Outstanding remote leases
// are likewise abandoned: late results are dropped as stale, and as the
// store holds no record of a leased job, resubmitting it runs it again.
func (r *Runner) Close() {
	r.mu.Lock()
	r.closed = true
	rm().queueDepth.Add(-float64(r.queue.n))
	r.queue = jobQueue{}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}
