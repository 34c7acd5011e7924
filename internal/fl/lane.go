package fl

import (
	"container/heap"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aergia/internal/dataset"
	"aergia/internal/nn"
	"aergia/internal/tensor"
)

// Compute lanes (DESIGN.md §14). A client's training is a pure function of
// client-local state, so it does not have to run on the goroutine that
// delivers the client's messages: the client hands its lane a step the
// moment the step's inputs are fixed, and the virtual-time event that
// publishes the result joins it. Only real arithmetic moves; everything
// that reads a clock or puts a message on the wire stays where it was.
//
// The scheduler below is process-wide: at most GOMAXPROCS steps execute at
// once however many runs are in flight, so a sweep that already fills the
// cores with jobs keeps its throughput and a lone run uses them all.

// stepFunc is one unit of lane work. It owns what it touches — a network,
// an optimizer, batch slices, all captured by value — and checks stop
// between batches. The weights it returns are handed to the joiner.
type stepFunc func(stop *atomic.Bool) (nn.Weights, error)

// errLaneCancelled is the result of every step a cancelled lane still held.
var errLaneCancelled = errors.New("fl: compute lane cancelled")

type stepState uint8

const (
	stepQueued   stepState = iota // behind another step of its lane
	stepReady                     // head of its lane, in the ready heap
	stepRunning                   // executing on a worker or inline at a join
	stepFinished                  // w and err are set, done (if made) is closed
)

// step is a launched stepFunc and the future its joiner waits on. All
// fields are guarded by laneSched.mu.
type step struct {
	run  stepFunc
	due  time.Duration // virtual time of the event that joins the step
	seq  uint64        // launch order, the tie-break between equal dues
	lane *lane
	done chan struct{} // made by the first waiter: most joiners run the step

	state stepState
	idx   int // position in the ready heap while stepReady
	w     nn.Weights
	err   error
}

// waitLocked returns a channel that closes when the step finishes.
func (s *step) waitLocked() <-chan struct{} {
	if s.done == nil {
		s.done = make(chan struct{})
	}
	return s.done
}

// lane is one client's ordered chain of steps for one round, or one
// evaluation. Steps run in launch order, one at a time; the first failure
// (or a cancel) fails every step behind it without running it.
type lane struct {
	group *laneGroup
	// stop is the cancel flag running steps poll between batches.
	stop atomic.Bool

	// Guarded by laneSched.mu.
	queue  []*step // unfinished steps; only queue[0] can be ready or running
	err    error   // sticky: what every later step of this lane finishes with
	urgent bool    // a joiner is blocked on this lane; it runs before any due
}

// laneGroup is what one run's compute owns: the lanes it created, so that
// the run can cancel and drain them before it returns — no step of one run
// executes into the next run's clock — and the networks, weight vectors and
// sample tensors those lanes and the run's actors lease. Topology.Build
// makes one per cluster.
type laneGroup struct {
	// live holds the lanes with unfinished steps; guarded by laneSched.mu.
	live map[*lane]struct{}

	// The run's idle model replicas and weight vectors, last in first out,
	// and the client round leases holding a replica now. A replica is leased
	// by a client round's lane steps (roundNet) or for one helper job, and
	// every lease overwrites all of it (takeNet), so which physical network a
	// lease draws never shows in a result; the same holds for a vector, which
	// a snapshot or a decode overwrites whole (takeWeights), and for a sample
	// tensor, which a shard's generation overwrites whole (takeSamples). Lane
	// workers take and return networks and vectors: mu guards free, vecs,
	// samples and rounds.
	mu      sync.Mutex
	free    []*nn.Network
	vecs    []nn.Weights
	samples []*tensor.Tensor
	rounds  map[*roundNet]struct{}
	// onLease, when set by a test, observes every take (true) and put.
	onLease func(net *nn.Network, take bool)
	// onReturn, when set by a test, sees every pair putWeights is handed and
	// the idle list it is about to join, under mu.
	onReturn func(w nn.Weights, idle []nn.Weights)
}

func newLaneGroup() *laneGroup {
	return &laneGroup{live: map[*lane]struct{}{}, rounds: map[*roundNet]struct{}{}}
}

// takeNet leases a replica of the run's architecture: an idle one when the
// list has one, a blank nn.Replica otherwise. The caller must LoadWeights
// before the first forward pass; parameters, gradients, optimizer and
// workspaces are all rewritten by a round before they are read, and the
// freeze flag — the one piece of state a previous holder leaves that nothing
// overwrites — is cleared here.
func (g *laneGroup) takeNet(arch nn.Arch, be tensor.Backend) (*nn.Network, error) {
	g.mu.Lock()
	var net *nn.Network
	if n := len(g.free); n > 0 {
		net, g.free[n-1] = g.free[n-1], nil
		g.free = g.free[:n-1]
	}
	g.mu.Unlock()
	if net == nil {
		var err error
		if net, err = nn.Replica(arch, be); err != nil {
			return nil, err
		}
	}
	net.SetFeaturesFrozen(false)
	if g.onLease != nil {
		g.onLease(net, true)
	}
	return net, nil
}

// putNet ends a lease. The network must be quiescent: no step that trains it
// is queued or running.
func (g *laneGroup) putNet(net *nn.Network) {
	if g.onLease != nil {
		g.onLease(net, false)
	}
	g.mu.Lock()
	g.free = append(g.free, net)
	g.mu.Unlock()
}

// leaseNet takes a replica for the client round r (roundNet.hold). The round
// ends the lease (endLease), or drain does.
func (g *laneGroup) leaseNet(r *roundNet) (*nn.Network, error) {
	net, err := g.takeNet(r.arch, r.be)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.rounds[r] = struct{}{}
	g.mu.Unlock()
	r.net.Store(net)
	return net, nil
}

// endLease hands the round's replica back if it still holds one. No step
// may be training it.
func (g *laneGroup) endLease(r *roundNet) {
	net := r.net.Swap(nil)
	if net == nil {
		return
	}
	g.mu.Lock()
	delete(g.rounds, r)
	g.mu.Unlock()
	g.putNet(net)
}

// takeWeights leases a weight vector pair for a snapshot (nn SnapshotInto)
// or a decode (decodeWeights) to fill: an idle pair when the list has one, an
// empty one, which the filler allocates, otherwise.
func (g *laneGroup) takeWeights() (w nn.Weights) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n := len(g.vecs); n > 0 {
		w, g.vecs[n-1] = g.vecs[n-1], nn.Weights{}
		g.vecs = g.vecs[:n-1]
	}
	return w
}

// putWeights ends a vector lease; nothing may read w afterwards. Its caller
// is the pair's one owner: whoever took it, or whoever it was shipped to.
func (g *laneGroup) putWeights(w nn.Weights) {
	g.mu.Lock()
	if g.onReturn != nil {
		g.onReturn(w, g.vecs)
	}
	g.vecs = append(g.vecs, w)
	g.mu.Unlock()
}

// takeSamples leases n sample tensors for a shard to be generated into
// (dataset.Source.GenerateInto): idle ones while the list has them, nil ones,
// which the generator allocates, for the rest.
func (g *laneGroup) takeSamples(n int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	g.mu.Lock()
	idle := len(g.samples) - min(n, len(g.samples))
	copy(xs, g.samples[idle:])
	clear(g.samples[idle:])
	g.samples = g.samples[:idle]
	g.mu.Unlock()
	return xs
}

// putSamples ends the lease on the samples' tensors; nothing may read them
// afterwards.
func (g *laneGroup) putSamples(samples []dataset.Sample) {
	g.mu.Lock()
	for _, s := range samples {
		g.samples = append(g.samples, s.X)
	}
	g.mu.Unlock()
}

// laneSched is the process-wide scheduler state.
var laneSched struct {
	mu      sync.Mutex
	ready   stepHeap // the runnable head of every lane nobody is executing
	running int      // steps executing now, on workers and inline at joins
	seq     uint64
}

// stepHeap orders ready steps: lanes a joiner is blocked on first, then by
// the virtual time of the joining event, so the goroutine driving the
// clock rarely waits behind work it needs later, and a straggler that will
// be cut is usually still unstarted when its lane is cancelled.
type stepHeap []*step

func (h stepHeap) Len() int { return len(h) }
func (h stepHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.lane.urgent != b.lane.urgent {
		return a.lane.urgent
	}
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}
func (h stepHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *stepHeap) Push(x any) {
	s := x.(*step)
	s.idx = len(*h)
	*h = append(*h, s)
}
func (h *stepHeap) Pop() any {
	old := *h
	s := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return s
}

// laneWidth is the bound on concurrently executing steps. It is read when
// a step is admitted, not at init: `go test -cpu 1,2,8` changes it.
func laneWidth() int { return runtime.GOMAXPROCS(0) }

// launch appends a step to the lane and makes it runnable if it is the
// lane's head. due is the virtual time of the event that will join it.
func (l *lane) launch(due time.Duration, run stepFunc) *step {
	s := &step{run: run, due: due, lane: l}
	laneSched.mu.Lock()
	defer laneSched.mu.Unlock()
	laneSched.seq++
	s.seq = laneSched.seq
	l.queue = append(l.queue, s)
	l.group.live[l] = struct{}{}
	if len(l.queue) == 1 {
		advanceLocked(l)
		admitLocked()
	}
	return s
}

// advanceLocked settles the lane after its head changed: a failed or
// cancelled lane finishes everything it holds without running it,
// otherwise the new head becomes ready.
func advanceLocked(l *lane) {
	for len(l.queue) > 0 && l.err != nil {
		finishLocked(l.queue[0], nn.Weights{}, l.err)
	}
	if len(l.queue) == 0 {
		delete(l.group.live, l)
		return
	}
	head := l.queue[0]
	head.state = stepReady
	heap.Push(&laneSched.ready, head)
}

// finishLocked publishes the result of the lane's head and pops it. The
// step keeps nothing it ran with; the lane keeps nothing it finished.
func finishLocked(s *step, w nn.Weights, err error) {
	l := s.lane
	s.w, s.err, s.run = w, err, nil
	s.state = stepFinished
	if s.done != nil {
		close(s.done)
	}
	l.queue[0] = nil
	l.queue = l.queue[1:]
	if err != nil && l.err == nil {
		l.err = err
	}
}

// takeLocked claims the most urgent ready step for the calling goroutine if
// the bound allows one more. Background workers exist only when there is a
// second processor to run them on: at GOMAXPROCS 1 a worker could only
// time-slice with the goroutine that will join the step, so that goroutine
// runs it itself at the join — the execution order without lanes, with
// nothing spent on a client that is cut — and a worker is started only for
// a step some joiner is already blocked on (another run holds the slot).
func takeLocked() *step {
	if len(laneSched.ready) == 0 {
		return nil
	}
	width := laneWidth()
	if laneSched.running >= width || (width == 1 && !laneSched.ready[0].lane.urgent) {
		return nil
	}
	return claimLocked(laneSched.ready[0])
}

// claimLocked moves a ready step to running on the calling goroutine.
func claimLocked(s *step) *step {
	heap.Remove(&laneSched.ready, s.idx)
	s.state = stepRunning
	laneSched.running++
	return s
}

// admitLocked starts workers for ready steps while the bound has room.
func admitLocked() {
	for s := takeLocked(); s != nil; s = takeLocked() {
		go work(s)
	}
}

// work runs steps until none is admissible. A worker never waits on another
// step: the lane hands over its next step when the previous one finishes,
// so every ready step is runnable and a bounded worker is never parked.
func work(s *step) {
	for s != nil {
		s = execute(s)
	}
}

// execute runs a claimed step on the calling goroutine, settles its lane,
// and returns the step the freed slot admits next, if any.
func execute(s *step) *step {
	w, err := s.run(&s.lane.stop)
	laneSched.mu.Lock()
	defer laneSched.mu.Unlock()
	laneSched.running--
	finishLocked(s, w, err)
	advanceLocked(s.lane)
	return takeLocked()
}

// setUrgentLocked flags the lane as blocking a joiner (or clears the flag)
// and restores the heap order of its head.
func setUrgentLocked(l *lane, urgent bool) {
	if l.urgent == urgent {
		return
	}
	l.urgent = urgent
	if len(l.queue) > 0 && l.queue[0].state == stepReady {
		heap.Fix(&laneSched.ready, l.queue[0].idx)
	}
}

// join returns the step's result, executing it — and the steps of its lane
// ahead of it — on the calling goroutine when no worker has picked them up
// and the bound has room, and waiting for whoever runs them otherwise. A
// nil step (nothing was launched) joins as done.
func (s *step) join() (nn.Weights, error) {
	if s == nil {
		return nn.Weights{}, nil
	}
	l := s.lane
	laneSched.mu.Lock()
	for s.state != stepFinished {
		head := l.queue[0]
		if head.state == stepReady && laneSched.running < laneWidth() {
			claimLocked(head)
			laneSched.mu.Unlock()
			if next := execute(head); next != nil {
				// The slot this goroutine just freed admits another step;
				// it belongs on a worker, the joiner has its own to finish.
				go work(next)
			}
			laneSched.mu.Lock()
			continue
		}
		// Running elsewhere, or ready with every slot taken: whoever
		// finishes next takes an urgent lane first.
		setUrgentLocked(l, true)
		done := head.waitLocked()
		laneSched.mu.Unlock()
		<-done
		laneSched.mu.Lock()
	}
	setUrgentLocked(l, false)
	w, err := s.w, s.err
	laneSched.mu.Unlock()
	return w, err
}

// cancelLocked fails every step the lane holds that is not executing and
// tells the one that is to stop after its current batch; it returns that
// step's done channel (nil when nothing is executing) for the caller to
// wait on once it has released the lock.
func cancelLocked(l *lane) <-chan struct{} {
	if len(l.queue) == 0 {
		return nil
	}
	l.stop.Store(true)
	if l.err == nil {
		l.err = errLaneCancelled
	}
	head := l.queue[0]
	if head.state == stepRunning {
		return head.waitLocked() // its finish flushes the rest
	}
	heap.Remove(&laneSched.ready, head.idx)
	advanceLocked(l)
	return nil
}

// cancel stops the lane and waits for the step it was executing, at most
// one batch. The lane is dead afterwards; its owner starts a new one.
func (l *lane) cancel() {
	if l == nil {
		return
	}
	laneSched.mu.Lock()
	running := cancelLocked(l)
	laneSched.mu.Unlock()
	if running != nil {
		<-running
	}
}

// drain cancels every lane of the group, returns once none of their steps is
// executing (the queued ones are failed unrun), ends the client round leases
// still open — a weak client that froze in the last round, a round cut or
// crashed before its last batch — and empties the free lists.
func (g *laneGroup) drain() {
	if g == nil {
		return
	}
	var running []<-chan struct{}
	laneSched.mu.Lock()
	for l := range g.live {
		if ch := cancelLocked(l); ch != nil {
			running = append(running, ch)
		}
	}
	laneSched.mu.Unlock()
	for _, ch := range running {
		<-ch
	}
	// The run is over: its leased and idle replicas, vectors and sample
	// tensors are garbage with it, and no client keeps one reachable for as
	// long as the cluster lives.
	g.mu.Lock()
	rounds := g.rounds
	g.rounds = map[*roundNet]struct{}{}
	g.free, g.vecs, g.samples = nil, nil, nil
	g.mu.Unlock()
	for r := range rounds {
		if net := r.net.Swap(nil); net != nil && g.onLease != nil {
			g.onLease(net, false)
		}
	}
}
