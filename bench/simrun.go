package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"aergia/internal/comm"
	"aergia/internal/fl"
	"aergia/internal/tensor"
)

// setupRounds is how many times a simulator run sets up before its first
// timed op; setup_s is the median round. A round is everything a process
// does before it can time an op: constructing the backend and one full
// untimed op, which fills the worker pool, the heap and the caches.
const setupRounds = 3

func setGCPercent(p int) int { return debug.SetGCPercent(p) }

// simRun is the state the untraced and traced runs share: the workload, its
// backend, and the outcome every op must reproduce.
type simRun struct {
	spec simSpec
	o    options
	be   tensor.Backend
	res  *result
	// seed is the topology seed of every op.
	seed uint64
	// first is the first op's outcome and want its fingerprint, which every
	// later op must reproduce.
	first *fl.Results
	want  string
}

func (s *simRun) config() fl.Config { return s.spec.config(s.seed, s.be, s.o.toy) }

// check counts one op and compares its fingerprint with the first op's.
func (s *simRun) check(r *fl.Results) {
	s.res.attempted++
	fp := fingerprint(r)
	switch {
	case s.first == nil:
		s.first, s.want = r, fp
	case fp != s.want:
		s.res.failed++
		s.res.notef("%s: op %d fingerprint %s, want %s", s.spec.name, s.res.attempted, fp, s.want)
	}
}

// setup runs the set-up rounds and returns each round's seconds.
func (s *simRun) setup() ([]float64, error) {
	rounds := make([]float64, setupRounds)
	for i := range rounds {
		start := time.Now()
		be, err := tensor.NewBackend(s.spec.backend, 0)
		if err != nil {
			return nil, err
		}
		s.be = be
		r, err := fl.Run(s.config())
		if err != nil {
			return nil, err
		}
		rounds[i] = time.Since(start).Seconds()
		s.check(r)
	}
	return rounds, nil
}

// timed runs n ops through fl.Run and returns each op's milliseconds.
func (s *simRun) timed(n int) ([]float64, error) {
	lat := make([]float64, n)
	for i := range lat {
		start := time.Now()
		r, err := fl.Run(s.config())
		if err != nil {
			return nil, err
		}
		lat[i] = ms(time.Since(start))
		s.check(r)
	}
	return lat, nil
}

// fedAvgReference runs sim_aergia's topology under FedAvg and requires
// Aergia's virtual training time to be the lower one: the paper's claim,
// checked on every run. It returns the saving as a share of FedAvg's time.
func (s *simRun) fedAvgReference(aergia time.Duration) (float64, error) {
	cfg := s.config()
	cfg.Strategy = fl.NewFedAvg(0)
	ref, err := fl.Run(cfg)
	if err != nil {
		return 0, err
	}
	s.res.attempted++
	if aergia >= ref.TotalTime {
		s.res.failed++
	}
	s.res.notef("sim_aergia: virtual training time %.3fs under Aergia, %.3fs under FedAvg", aergia.Seconds(), ref.TotalTime.Seconds())
	return 1 - aergia.Seconds()/ref.TotalTime.Seconds(), nil
}

func newSimRun(o options) (*simRun, error) {
	spec, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	s := &simRun{spec: spec, o: o, res: newResult(), seed: o.seed}
	if spec.name == "hier_scale" {
		s.seed = scaleSeed(o.seed, s.config())
		s.res.notef("hier_scale: topology seed %d, the first from -seed %d whose rounds together sample rounds x the stated cohort", s.seed, o.seed)
	}
	return s, nil
}

func (s *simRun) ops() int {
	if s.o.toy {
		return 2
	}
	return scaledOps(s.spec.ops, s.o.seconds)
}

// runSim is an untraced run of a simulator workload: set-up rounds, the
// timed ops, and one more op taken apart so that the heap can be read
// while its cluster is still referenced.
func runSim(o options) (*result, error) {
	s, err := newSimRun(o)
	if err != nil {
		return nil, err
	}
	rounds, err := s.setup()
	if err != nil {
		return nil, err
	}
	s.res.notef("%s: set-up rounds %.3f s", o.workload, rounds)
	s.res.set("setup_s", median(rounds))
	if o.workload == "sim_aergia" {
		if _, err := s.fedAvgReference(s.first.TotalTime); err != nil {
			return nil, err
		}
	}

	n := s.ops()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	lat, err := s.timed(n)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	s.res.notef("%s: %d timed ops in %.3fs: %.0f ms", o.workload, n, wall.Seconds(), lat)
	s.res.set("ops_per_s", float64(n)/wall.Seconds())
	s.res.set("op_p50_ms", median(lat))
	s.res.set("alloc_mb_per_op", mb(after.TotalAlloc-before.TotalAlloc)/float64(n))

	d, err := buildDeployment(s.config(), nil)
	if err != nil {
		return nil, err
	}
	r, err := d.run()
	if err != nil {
		return nil, err
	}
	s.check(r)
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.res.set("heap_live_mb", mb(after.HeapAlloc))
	runtime.KeepAlive(d)
	return s.res, nil
}

// tracedOps is how many ops a traced run times each way.
const tracedOps = 3

// gcCPU reads the runtime's CPU accounting: seconds spent in the collector
// and seconds available to the process. The runtime brings these up to date
// at the end of each collection, so a reading lags by up to one cycle.
func gcCPU() (gc, total float64) {
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// gcShare is the collector's share of the CPU between two gcCPU readings; 0
// when no collection finished between them.
func gcShare(gc0, total0, gc1, total1 float64) float64 {
	if total1 <= total0 {
		return 0
	}
	return (gc1 - gc0) / (total1 - total0)
}

// traceSim is a traced run of a simulator workload. It times tracedOps ops
// through fl.Run as the untraced reference, then the same number taken
// apart, with the backend and transport decorators in place and a span
// around Build and Run, and requires the same fingerprint from all of
// them. Then it measures every layer in isolation.
func traceSim(env *environment, o options) (*result, error) {
	s, err := newSimRun(o)
	if err != nil {
		return nil, err
	}
	res := s.res
	if s.be, err = tensor.NewBackend(s.spec.backend, 0); err != nil {
		return nil, err
	}
	n := tracedOps
	if o.toy {
		n = 2
	}
	// One op to warm up, so that neither side pays for the cold start.
	if _, err := s.timed(1); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPU()
	plain, err := s.timed(n)
	if err != nil {
		return nil, err
	}
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&after)
	res.set("runtime.gc_cycles_per_op", float64(after.NumGC-before.NumGC)/float64(n))
	res.set("runtime.gc_cpu_share", gcShare(gc0, cpu0, gc1, cpu1))

	log := newSpanLog()
	tb := newTimedBackend(s.be)
	var (
		tt          *timedTransport
		last        *fl.Results
		lastDep     *deployment
		traced      = make([]float64, n)
		build, run  = make([]float64, n), make([]float64, n)
		runSpans    = make([]int, n)
		tracedTotal float64 // ms
	)
	for i := 0; i < n; i++ {
		leaveOp := log.enter("op", fmt.Sprintf("%s %d", o.workload, i))
		cfg := s.config()
		cfg.Backend = tb
		leave := log.enter("fl", "build")
		d, err := buildDeployment(cfg, func(inner comm.Transport) comm.Transport {
			tt = &timedTransport{inner: inner, log: log}
			return tt
		})
		build[i] = ms(leave())
		if err != nil {
			return nil, err
		}
		leave = log.enter("fl", "run")
		runSpans[i] = log.parent
		r, err := d.run()
		run[i] = ms(leave())
		if err != nil {
			return nil, err
		}
		traced[i] = ms(leaveOp())
		tracedTotal += traced[i]
		s.check(r)
		last, lastDep = r, d
	}
	spans := log.finish()

	// Busy time by role: the handler, timer and Invoke spans directly under
	// each op's run span. What is left of run is the stack's own time: the
	// kernel, the four wrappers, and this decorator.
	roles := map[string][]float64{"client": make([]float64, n), "federator": make([]float64, n), "edge": make([]float64, n)}
	self := make([]float64, n)
	for i, id := range runSpans {
		for _, sp := range spans {
			if sp.Parent == id {
				if busy, ok := roles[sp.Layer]; ok {
					busy[i] += ms(time.Duration(sp.EndNS - sp.StartNS))
				}
			}
		}
		self[i] = ms(time.Duration(spans[id-1].SelfNS))
	}
	res.set("fl.build_ms", median(build))
	res.set("fl.run_ms", median(run))
	res.set("fl.client_busy_ms", median(roles["client"]))
	res.set("fl.federator_busy_ms", median(roles["federator"]))
	res.set("fl.edge_busy_ms", median(roles["edge"]))
	res.set("fl.stack_self_ms", median(self))
	res.set("tensor.busy_share", ms(tb.busy())/tracedTotal)
	res.set("runtime.trace_overhead", median(traced)/median(plain))
	res.set("comm.msgs_per_op", float64(tt.msgs))
	res.set("comm.bytes_per_op", float64(tt.bytes))
	res.set("fl.virtual_s_per_op", last.TotalTime.Seconds())
	res.set("fl.final_accuracy", last.FinalAccuracy)
	res.set("fl.offloads_per_op", float64(last.TotalOffloads()))
	res.set("fl.update_bytes_per_op", float64(last.Bandwidth.UpdateBytes))
	res.set("fl.dispatch_bytes_per_op", float64(last.Bandwidth.DispatchBytes))
	res.set("hier.hydrations_per_op", float64(lastDep.hydrated()))
	if lastDep.chaos != nil {
		st := lastDep.chaos.Stats()
		res.set("chaos.crashes_per_op", float64(st.Crashes))
		res.set("chaos.rejoins_per_op", float64(st.Rejoins))
	}
	cov := coverage(spans)
	res.notef("%s: %d untraced ops p50 %.1f ms, %d traced ops p50 %.1f ms, op spans' children cover %.1f%%",
		o.workload, n, median(plain), n, median(traced), 100*cov)
	if cov < 0.9 {
		res.failed++
		res.notef("%s: op spans' children cover less than 90%% of the op", o.workload)
	}

	switch o.workload {
	case "sim_aergia":
		saving, err := s.fedAvgReference(last.TotalTime)
		if err != nil {
			return nil, err
		}
		res.set("fl.aergia_saving_vs_fedavg", saving)
	case "sim_hostile":
		// The codec's share of the op: the same ops with the codec off.
		// Their results differ by design, so they are not fingerprinted.
		bare := make([]float64, n)
		for i := range bare {
			cfg := s.config()
			cfg.Codec = ""
			start := time.Now()
			if _, err := fl.Run(cfg); err != nil {
				return nil, err
			}
			bare[i] = ms(time.Since(start))
		}
		res.set("codec.share_of_op", 1-median(bare)/median(plain))
	}

	if err := env.layerSuite(res, o.seed, o.toy); err != nil {
		return nil, err
	}
	res.set("runtime.peak_rss_mb", peakRSS(os.Getpid()))
	stats := make([]kernelStats, len(tb.stats))
	copy(stats, tb.stats[:])
	path, err := writeTrace(env.benchDir, traceFile{Workload: o.workload, Seed: o.seed, Spans: spans,
		Kernels: stats, Messages: tt.msgs, Bytes: tt.bytes})
	if err != nil {
		return nil, err
	}
	res.notef("%s: %d spans written to %s", o.workload, len(spans), path)
	return res, nil
}
