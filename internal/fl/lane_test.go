package fl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/sim"
	"aergia/internal/tensor"
	"aergia/internal/trace"
)

// atWidth runs fn with GOMAXPROCS set to procs; the lanes read the width
// when a step is admitted, so this is what `go test -cpu` does per run.
func atWidth(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// resultHash folds every number a run reports — per-round virtual
// durations, accuracy bits, completion and offload counts, the bandwidth
// ledger — into one value.
func resultHash(r *Results) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		for _, v := range vs {
			fmt.Fprintf(h, "%016x", v)
		}
	}
	put(uint64(r.TotalTime), uint64(r.PreTraining), math.Float64bits(r.FinalAccuracy))
	for _, rs := range r.Rounds {
		put(uint64(rs.Duration), math.Float64bits(rs.Accuracy), uint64(rs.Completed), uint64(rs.Offloads))
	}
	bw := r.Bandwidth
	put(uint64(bw.DispatchBytes), uint64(bw.UpdateBytes), uint64(bw.OffloadBytes),
		uint64(bw.ResultBytes), uint64(bw.ControlBytes), uint64(bw.TotalBytes))
	return h.Sum64()
}

// evaluatedModels makes cl's federator fold every global model it evaluates,
// bit for bit, into the hash the returned function reads after the run. The
// reported numbers alone barely see the weights: a handful of test samples
// score the same under a last-bit change, or under updates summed in
// another order.
func evaluatedModels(cl *Cluster) func() uint64 {
	h := fnv.New64a()
	eval := cl.Federator.Evaluate
	cl.Federator.Evaluate = func(w nn.Weights) (float64, error) {
		// A hash's Write never fails.
		_ = binary.Write(h, binary.LittleEndian, w.Feature)
		_ = binary.Write(h, binary.LittleEndian, w.Classifier)
		return eval(w)
	}
	return h.Sum64
}

// asyncResultHash is resultHash for an asynchronous run: every sample, the
// totals, the mean staleness and the bandwidth ledger.
func asyncResultHash(r *AsyncResults) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *r)
	return h.Sum64()
}

// aergiaShapedConfig is the bench's sim_aergia workload at test size:
// Aergia over a speed ladder, two local epochs, non-IID shards, and links
// with latency and bandwidth so dispatches land at different virtual times.
func aergiaShapedConfig() Config {
	cfg := testConfig(NewAergia(0, 1))
	cfg.Rounds = 2
	cfg.NonIIDClasses = 3
	cfg.Speeds = []float64{0.15, 0.95, 0.4, 0.7, 0.25, 0.85, 0.55, 1.0}
	cfg.Link = sim.UniformLink(10*time.Millisecond, 1e6)
	return cfg
}

// churnTopKConfig is the bench's sim_hostile workload at test size: short
// FedAvg rounds under crash/rejoin churn, laggy links, quorum cuts and the
// residual-carrying topk codec.
func churnTopKConfig() Config {
	cfg := testConfig(NewFedAvg(0))
	cfg.Rounds = 6
	cfg.LocalEpochs = 1
	cfg.Speeds = []float64{0.15, 0.95, 0.4, 0.7, 0.25, 0.85, 0.55, 1.0}
	cfg.Codec = codec.TopK
	cfg.Chaos = chaos.Plan{
		Churn: .6, Rejoin: 1, Window: 14 * time.Second, Down: 500 * time.Millisecond,
		Delay: 20 * time.Millisecond, Quorum: .6, RoundTimeout: 4 * time.Second,
	}
	return cfg
}

// TestLanesKeepEveryBit pins the lanes' contract: moving training off the
// clock's goroutine moves no virtual time and no bit, at any width. The
// hashes were captured at the parent commit, where every batch ran on the
// kernel goroutine at the timer that published it.
func TestLanesKeepEveryBit(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
		want uint64
	}{
		{"aergia-shaped", aergiaShapedConfig, goldenAergiaShaped},
		{"churn-topk", churnTopKConfig, goldenChurnTopK},
	} {
		for _, procs := range []int{1, 2, 8} {
			atWidth(procs, func() {
				res, err := Run(tc.cfg())
				if err != nil {
					t.Fatal(err)
				}
				if got := resultHash(res); got != tc.want {
					t.Errorf("%s at GOMAXPROCS %d: result hash %#x, want the parent's %#x",
						tc.name, procs, got, tc.want)
				}
			})
		}
	}
}

// Captured at b3e65d5 (before lanes) with resultHash over the two configs.
const (
	goldenAergiaShaped uint64 = 0xd06f4199abd747a2
	goldenChurnTopK    uint64 = 0x3476d27f8b04570
)

// TestLanesKeepEveryEvent: evaluation is a lane step the next close joins,
// so a round's accuracy and its RoundEvent arrive later in wall time — with
// the content the close fixed, straggler included, in the same order, at
// every width. The runs cover Aergia, a churned run, an async run, a tiered
// run that evaluates every second round, and a run whose cut stragglers
// deliver their updates while the next round runs — spans of a closed round
// landing before its evaluation is joined, which would rename its straggler
// if the event were resolved at the join. Each replays to the events and
// accuracies of GOMAXPROCS 1, and those hash to what the commit before
// evaluation moved onto lanes published inline.
func TestLanesKeepEveryEvent(t *testing.T) {
	tiered := testConfig(NewFedAvg(0))
	tiered.Hier = hier.Options{Tiers: 2}
	tiered.EvalEvery = 2
	// The 0.6-speed clients need 1.97 s, the deadline cuts at 1.5 s, and
	// the ones the next round leaves out finish during it.
	late := testConfig(NewDeadlineFedAvg(4, 1500*time.Millisecond))
	late.Rounds = 6
	late.Speeds = []float64{0.6, 0.9, 0.6, 0.9, 0.6, 0.9, 0.6, 0.9}
	runSync := func(cfg Config) func(*obs.RoundStream) ([]float64, error) {
		return func(events *obs.RoundStream) ([]float64, error) {
			cfg.Events = events
			res, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			accs := []float64{res.FinalAccuracy}
			for _, r := range res.Rounds {
				accs = append(accs, r.Accuracy)
			}
			return accs, nil
		}
	}
	for _, tc := range []struct {
		name string
		run  func(*obs.RoundStream) ([]float64, error)
		want uint64 // captured at 3853003, which evaluated inline at the close
	}{
		{"aergia-shaped", runSync(aergiaShapedConfig()), 0xc6d76ced290df2e5},
		{"churn-topk", runSync(churnTopKConfig()), 0x503bba00f42ab77a},
		{"tiered-eval-every-2", runSync(tiered), 0xfd9c95dc44c6618f},
		{"late-stragglers", runSync(late), 0xa8855542841ad27b},
		{"async", func(events *obs.RoundStream) ([]float64, error) {
			cfg := asyncTestConfig()
			cfg.Events = events
			res, err := RunAsync(cfg)
			if err != nil {
				return nil, err
			}
			accs := []float64{res.FinalAccuracy}
			for _, s := range res.Samples {
				accs = append(accs, s.Accuracy)
			}
			return accs, nil
		}, 0x958abeb589b6185e},
	} {
		var refEvents []obs.RoundEvent
		var refAccs []float64
		for _, procs := range []int{1, 2, 8} {
			atWidth(procs, func() {
				events := obs.NewRoundStream()
				accs, err := tc.run(events)
				if err != nil {
					t.Fatal(err)
				}
				got := events.Events()
				if refEvents == nil {
					refEvents, refAccs = got, accs
				}
				if !reflect.DeepEqual(got, refEvents) || !reflect.DeepEqual(accs, refAccs) {
					t.Errorf("%s at GOMAXPROCS %d: events %+v accuracies %v, GOMAXPROCS 1 read %+v %v",
						tc.name, procs, got, accs, refEvents, refAccs)
				}
				if h := eventsHash(got, accs); h != tc.want {
					t.Errorf("%s at GOMAXPROCS %d: events hash %#x, want the inline evaluation's %#x", tc.name, procs, h, tc.want)
				}
			})
		}
	}
}

// eventsHash folds a run's published events and its accuracies into one
// value (%v prints a float64 in its shortest round-tripping form, so every
// bit counts).
func eventsHash(evs []obs.RoundEvent, accs []float64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v %v", evs, accs)
	return h.Sum64()
}

// TestLanesPipelineTheRemainder: a client no directive reaches launches
// each batch when the clock passes the boundary that makes it certain, so
// its finish timer launches only the last one (the code before the
// boundary chain launched all nine there), a receiver's finish launches
// none, and the run keeps its bits.
func TestLanesPipelineTheRemainder(t *testing.T) {
	cfg := aergiaShapedConfig()
	cl, err := cfg.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	launched := map[int]int{} // batches launched at a finish timer -> finish timers
	for _, c := range cl.Clients {
		c.onFinishLaunch = func(n int) { launched[n]++ }
	}
	res, err := runOn(cl, cfg.Transport, cfg.Link, 0, (*Deployment).Run)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultHash(res); got != goldenAergiaShaped {
		t.Fatalf("result hash %#x, want %#x", got, goldenAergiaShaped)
	}
	unpaired, receivers := 0, 0
	for _, r := range res.Rounds {
		unpaired += r.Completed - 2*r.Offloads
		receivers += r.Offloads
	}
	if unpaired == 0 || receivers == 0 || launched[1] != unpaired || launched[0] != receivers || len(launched) != 2 {
		t.Fatalf("finish timers launched %v (batches: timers); want {1: %d unpaired client-rounds, 0: %d receivers}",
			launched, unpaired, receivers)
	}
}

// gaugeBackend counts backward-kernel calls in flight. Backward kernels run
// only inside TrainBatch, and TrainBatch runs only inside lane steps, so
// the gauge reads the number of training steps computing at once —
// evaluation, a lane step too but forward-only, does not touch it.
type gaugeBackend struct {
	tensor.Backend
	inFlight atomic.Int64
	peak     atomic.Int64
	calls    atomic.Int64
	// company, when set, makes a backward call that finds itself alone
	// wait (bounded) for a second one, so "two steps overlap" is observed
	// whenever the scheduler allows it, not when timing happens to show it.
	company atomic.Bool
}

func (g *gaugeBackend) enter() {
	g.calls.Add(1)
	n := g.inFlight.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	if g.company.Load() {
		for deadline := time.Now().Add(2 * time.Second); g.peak.Load() < 2 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		g.company.Store(g.peak.Load() < 2)
	}
}

func (g *gaugeBackend) leave() { g.inFlight.Add(-1) }

func (g *gaugeBackend) DenseBackwardFused(w, x, gy *tensor.Tensor, act tensor.Activation, gw, gb *tensor.Tensor, ws *tensor.Workspace) (*tensor.Tensor, error) {
	g.enter()
	defer g.leave()
	return g.Backend.DenseBackwardFused(w, x, gy, act, gw, gb, ws)
}

func (g *gaugeBackend) Conv2DGradsFused(x, w, gy *tensor.Tensor, pad, stride int, act tensor.Activation, gwAcc, gbAcc *tensor.Tensor, ws *tensor.Workspace) (*tensor.Tensor, error) {
	g.enter()
	defer g.leave()
	return g.Backend.Conv2DGradsFused(x, w, gy, pad, stride, act, gwAcc, gbAcc, ws)
}

// callsPerBatch measures how many gauged kernel calls one TrainBatch of
// cfg's shape makes, so call totals convert to batches.
func callsPerBatch(t *testing.T, cfg Config) int64 {
	t.Helper()
	g := &gaugeBackend{Backend: tensor.Serial{}}
	cfg.Backend = g
	cfg.Rounds = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := int64(res.Rounds[0].Completed * cfg.LocalEpochs * cfg.TrainSamples / cfg.Clients / cfg.BatchSize)
	if batches == 0 || g.calls.Load()%batches != 0 {
		t.Fatalf("%d gauged calls over %d batches", g.calls.Load(), batches)
	}
	return g.calls.Load() / batches
}

// TestLanesOverlapWithinBound: at GOMAXPROCS >= 2 a round's clients train
// at the same time, and however many runs are in flight the process never
// executes more than GOMAXPROCS steps at once.
func TestLanesOverlapWithinBound(t *testing.T) {
	atWidth(2, func() {
		g := &gaugeBackend{Backend: tensor.Serial{}}
		g.company.Store(true)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := testConfig(NewFedAvg(0))
				cfg.Rounds = 2
				cfg.Backend = g
				_, errs[i] = Run(cfg)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if peak := g.peak.Load(); peak != 2 {
			t.Fatalf("peak concurrent training kernels %d over two runs, want exactly GOMAXPROCS = 2", peak)
		}
	})
}

// TestLanesCutClientsCost: at GOMAXPROCS 1 no worker exists, a step runs at
// its join, and a client the deadline cuts never trains — the batch count
// is the parent's to the batch. Wider, a cut client may have been started
// before the next dispatch cancels it; what that can cost is bounded by
// its own round, and TestLaneCancelStopsWithinOneBatch bounds what it
// costs after the cancel.
func TestLanesCutClientsCost(t *testing.T) {
	speeds := []float64{0.05, 0.06, 0.07, 0.08, 0.9, 0.9, 0.9, 0.9}
	base := testConfig(NewFedAvg(0))
	base.Speeds = speeds
	base.Rounds = 3
	perBatch := callsPerBatch(t, base)
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	batchesPerClient := int64(base.LocalEpochs * base.TrainSamples / base.Clients / base.BatchSize)
	for _, procs := range []int{1, 2} {
		atWidth(procs, func() {
			g := &gaugeBackend{Backend: tensor.Serial{}}
			cfg := base
			cfg.Backend = g
			// The four slow clients take ten times the fast ones' round; a
			// deadline at a fifth of it cuts exactly them, every round.
			cfg.Strategy = NewDeadlineFedAvg(0, full.Rounds[0].Duration/5)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rounds {
				if r.Completed != 4 {
					t.Fatalf("round %d completed %d, want the 4 fast clients", r.Round, r.Completed)
				}
			}
			// Without lanes a cut client trains only in the last round: no
			// later dispatch cancels its finish timer, and the simulator
			// drains every event.
			cutRounds := int64(4 * (len(res.Rounds) - 1))
			lazy := int64(4*len(res.Rounds)+4) * batchesPerClient
			trained := g.calls.Load() / perBatch
			switch {
			case procs == 1 && trained != lazy:
				t.Fatalf("GOMAXPROCS 1 trained %d batches, the count without lanes is %d", trained, lazy)
			case trained < lazy || trained > lazy+cutRounds*batchesPerClient:
				t.Fatalf("GOMAXPROCS %d trained %d batches, want within [%d, %d]",
					procs, trained, lazy, lazy+cutRounds*batchesPerClient)
			}
			t.Logf("GOMAXPROCS %d: %d batches without lanes, %d more spent on %d cut client-rounds (at most %d)",
				procs, lazy, trained-lazy, cutRounds, cutRounds*batchesPerClient)
		})
	}
}

// TestLaneCancelStopsWithinOneBatch drives a lane by hand: a cancel lets
// the executing step finish the batch it is in and no other, and fails the
// steps queued behind it without running them.
func TestLaneCancelStopsWithinOneBatch(t *testing.T) {
	atWidth(2, func() {
		g := newLaneGroup()
		l := &lane{group: g}
		var batches atomic.Int64
		inBatch := make(chan struct{})
		release := make(chan struct{})
		first := l.launch(0, func(stop *atomic.Bool) (nn.Weights, error) {
			for i := 0; i < 10; i++ {
				if stop.Load() {
					return nn.Weights{}, errLaneCancelled
				}
				batches.Add(1)
				if i == 2 {
					close(inBatch) // the third batch is executing
					<-release
				}
			}
			return nn.Weights{}, nil
		})
		var ranSecond atomic.Bool
		second := l.launch(0, func(*atomic.Bool) (nn.Weights, error) {
			ranSecond.Store(true)
			return nn.Weights{}, nil
		})
		<-inBatch
		cancelled := make(chan struct{})
		go func() {
			l.cancel()
			close(cancelled)
		}()
		// cancel waits for the batch in progress; it must not return first.
		select {
		case <-cancelled:
			t.Fatal("cancel returned while a batch was executing")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-cancelled
		if n := batches.Load(); n != 3 {
			t.Fatalf("%d batches ran, want the 3 started before the cancel", n)
		}
		if ranSecond.Load() {
			t.Fatal("a step queued behind the cancelled one ran")
		}
		for _, s := range []*step{first, second} {
			if _, err := s.join(); err != errLaneCancelled {
				t.Fatalf("join after cancel: %v, want errLaneCancelled", err)
			}
		}
		if n := g.unfinished(); n != 0 {
			t.Fatalf("%d steps unfinished after cancel", n)
		}
	})
}

// TestLaneStepsRunInOrderAndFailFast: a lane's steps execute one at a time
// in launch order, and the first error is what every later join reports.
func TestLaneStepsRunInOrderAndFailFast(t *testing.T) {
	for _, procs := range []int{1, 4} {
		atWidth(procs, func() {
			l := &lane{group: newLaneGroup()}
			var order []int
			var steps []*step
			boom := fmt.Errorf("boom")
			for i := 0; i < 6; i++ {
				steps = append(steps, l.launch(time.Duration(6-i), func(*atomic.Bool) (nn.Weights, error) {
					order = append(order, i) // unsynchronized on purpose: -race proves one at a time
					if i == 3 {
						return nn.Weights{}, boom
					}
					return nn.Weights{Feature: []float64{float64(i)}}, nil
				}))
			}
			for i, s := range steps {
				w, err := s.join()
				if i < 3 && (err != nil || w.Feature[0] != float64(i)) {
					t.Fatalf("step %d: %v %v", i, w, err)
				}
				if i >= 3 && err != boom {
					t.Fatalf("step %d after the failure: %v, want boom", i, err)
				}
			}
			if fmt.Sprint(order) != "[0 1 2 3]" {
				t.Fatalf("GOMAXPROCS %d executed %v, want [0 1 2 3]", procs, order)
			}
		})
	}
}

// TestLanesLeaveNothingBehind: when Deployment.Run or RunAsync returns, no
// goroutine the run started is alive, its lane group holds no step and no
// live lane, the federator holds no pending evaluation, and no client
// retains a future, a snapshot or a queued step — whether the run ended
// cleanly, asynchronously, under churn, with clients cut by a deadline, or
// with a hydrated shell crashed mid-training and dehydrated (its client,
// lane and all, is then reachable from nothing but the group).
func TestLanesLeaveNothingBehind(t *testing.T) {
	deadline := testConfig(NewDeadlineFedAvg(0, 400*time.Millisecond))
	deadline.Speeds = []float64{0.05, 0.06, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	tiered := testConfig(NewFedAvg(0))
	tiered.Speeds = []float64{0.25, 1, 1, 1, 1, 1, 1, 1}
	tiered.Hier = hier.Options{Tiers: 2}
	tieredRound, err := Run(tiered)
	if err != nil {
		t.Fatal(err)
	}
	d0 := tieredRound.Rounds[0].Duration // the straggler's; a fast client needs a quarter
	for _, tc := range []struct {
		name string
		cfg  Config
		pin  func(*chaos.Transport)
		// cut: some clients end the run with a cancelled round, so their
		// tail future is finished rather than joined.
		cut bool
		// async runs asyncTestConfig instead of cfg.
		async bool
	}{
		{name: "plain", cfg: testConfig(NewFedAvg(0))},
		{name: "async", async: true},
		{name: "aergia", cfg: aergiaShapedConfig()},
		{name: "hostile", cfg: churnTopKConfig(), cut: true},
		{name: "deadline", cfg: deadline, cut: true},
		{name: "tiered", cfg: tiered, pin: func(ct *chaos.Transport) {
			// Down in the middle of its round-0 training, back before the
			// straggler closes the round.
			ct.ScheduleCrash(5, d0/8, d0/4)
		}},
	} {
		atWidth(4, func() {
			before := runtime.NumGoroutine()
			var cl *Cluster
			if tc.async {
				var err error
				if cl, err = asyncTestConfig().Topology().Build(); err != nil {
					t.Fatal(err)
				}
				tr, err := NewTransport(TransportSim, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := (&Deployment{Cluster: cl, Transport: tr}).RunAsync(); err != nil {
					t.Fatal(err)
				}
			} else {
				dep, ct := buildChaosDeployment(t, tc.cfg, tc.cfg.Chaos)
				if tc.pin != nil {
					tc.pin(ct)
				}
				if _, err := dep.Run(); err != nil {
					t.Fatal(err)
				}
				cl = dep.Cluster
			}
			laneSched.mu.Lock()
			live := len(cl.lanes.live)
			laneSched.mu.Unlock()
			if n := cl.lanes.unfinished(); n != 0 || live != 0 {
				t.Fatalf("%s: lane group holds %d unfinished steps on %d live lanes after the run", tc.name, n, live)
			}
			if (cl.Federator != nil && cl.Federator.closing != nil) || (cl.AsyncFederator != nil && cl.AsyncFederator.sampling != nil) {
				t.Fatalf("%s: the federator holds an evaluation after the run", tc.name)
			}
			// A worker that just closed its last step's done channel is
			// still returning; give the scheduler a moment to retire it.
			var after int
			for wait := time.Now().Add(2 * time.Second); time.Now().Before(wait); time.Sleep(time.Millisecond) {
				if after = runtime.NumGoroutine(); after <= before {
					break
				}
			}
			if after > before {
				t.Fatalf("%s: %d goroutines after Run, %d before", tc.name, after, before)
			}
			if cl.Hier != nil {
				// Crashed hydrated and dropped by its rejoin; rejoined dormant,
				// then hydrated once a round and parked after each update.
				s := cl.Hier.Shells[5]
				if parked, rejoin := s.Dehydrations(); s.Hydrations() != tc.cfg.Rounds+1 || parked != tc.cfg.Rounds || rejoin != 1 || s.Hydrated() {
					t.Fatalf("%s: shell 5 hydrated %d times, parked %d, dropped by a rejoin %d, hydrated after the run %v; want %d, %d, 1, false",
						tc.name, s.Hydrations(), parked, rejoin, s.Hydrated(), tc.cfg.Rounds+1, tc.cfg.Rounds)
				}
			}
			for _, c := range cl.Clients {
				if c.lane != nil && len(c.lane.queue) != 0 {
					t.Fatalf("%s: client %d lane still queues %d steps", tc.name, c.ID, len(c.lane.queue))
				}
				if c.snap != nil || c.helper != nil || c.frozenW.Len() != 0 {
					t.Fatalf("%s: client %d retains snap %v helper %v frozen snapshot %d",
						tc.name, c.ID, c.snap != nil, c.helper != nil, c.frozenW.Len())
				}
				if c.tail != nil && (!tc.cut || c.tail.state != stepFinished || c.tail.run != nil) {
					t.Fatalf("%s: client %d retains an unjoined training future", tc.name, c.ID)
				}
			}
		})
	}
}

// TestResendOffloadShipsFreezeSnapshot: the helper of an offload pair dies
// after the weak client froze and shipped its model, while the weak client
// is still in its frozen tail. The reassigned helper must receive, bit for
// bit, what the dead one received — not the network as the frozen tail has
// left it since — and the run must replay identically at every width.
func TestResendOffloadShipsFreezeSnapshot(t *testing.T) {
	baseCfg := fixedSpeedConfig(NewAergia(0, 1))
	baseCfg.Rounds = 1
	baseLog := trace.NewLog()
	baseCfg.Trace = baseLog
	if _, err := Run(baseCfg); err != nil {
		t.Fatal(err)
	}
	var weak, strong comm.NodeID
	var frozenAt, weakDoneAt, helperDoneAt time.Duration
	for _, e := range baseLog.Events() {
		switch e.Kind {
		case trace.ModelFrozen:
			if frozenAt == 0 {
				weak, frozenAt = e.Node, e.Time
			}
		case trace.UpdateSent:
			if e.Node == weak && frozenAt != 0 && weakDoneAt == 0 {
				weakDoneAt = e.Time
			}
		case trace.HelperStart:
			if helperDoneAt == 0 {
				strong = e.Node
			}
		case trace.HelperDone:
			if helperDoneAt == 0 {
				helperDoneAt = e.Time
			}
		}
	}
	crashAt := frozenAt + (min(weakDoneAt, helperDoneAt)-frozenAt)/2
	if frozenAt == 0 || crashAt <= frozenAt {
		t.Fatalf("bad baseline: frozen %v, weak done %v, helper done %v", frozenAt, weakDoneAt, helperDoneAt)
	}

	run := func() (*Results, *Cluster) {
		cfg := fixedSpeedConfig(NewAergia(0, 1))
		cfg.Rounds = 1
		dep, ct := buildChaosDeployment(t, cfg, chaos.Plan{})
		ct.ScheduleCrash(strong, crashAt, 0)
		res, err := dep.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, dep.Cluster
	}
	var ref *Results
	for _, procs := range []int{1, 2, 8} {
		atWidth(procs, func() {
			res, cl := run()
			if ref == nil {
				ref = res
			}
			assertResultsIdentical(t, fmt.Sprintf("GOMAXPROCS %d", procs), ref, res)
			// One round, so every helper still holds the job it was sent.
			first := cl.Clients[strong].offloadJob
			var again *OffloadPayload
			for _, c := range cl.Clients {
				if c.ID != strong && c.offloadJob != nil && c.offloadJob.Weak == weak {
					again = c.offloadJob
				}
			}
			if first == nil || again == nil {
				t.Fatalf("GOMAXPROCS %d: shipments %v / %v; the crash did not force a re-ship", procs, first != nil, again != nil)
			}
			if first.Updates != again.Updates || !sameBits(first.Weights.Feature, again.Weights.Feature) ||
				!sameBits(first.Weights.Classifier, again.Weights.Classifier) {
				t.Fatalf("GOMAXPROCS %d: the re-shipped model differs from the first shipment", procs)
			}
		})
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// unfinished reports the group's queued plus executing steps.
func (g *laneGroup) unfinished() int {
	laneSched.mu.Lock()
	defer laneSched.mu.Unlock()
	n := 0
	for l := range g.live {
		n += len(l.queue)
	}
	return n
}
