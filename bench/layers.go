package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/experiments"
	"aergia/internal/fed"
	"aergia/internal/fl"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/rpc"
	"aergia/internal/runner"
	"aergia/internal/sim"
	"aergia/internal/tensor"
)

// perLayer names every per-layer metric, layer = module name. The suite
// metrics (layerSuite) time calls into one layer's public functions and
// are measured on every traced run; the rest come out of the traced ops of
// the workload and read 0 on a workload that has no such layer.
// README.md says which end-to-end number each should move.
var perLayer = []metricDef{
	{"tensor.conv_fwd_gflops_serial", "GFLOP/s"},
	{"tensor.conv_bwd_gflops_serial", "GFLOP/s"},
	{"tensor.dense_bwd_gflops_serial", "GFLOP/s"},
	{"tensor.conv_fwd_gflops_parallel32", "GFLOP/s"},
	{"tensor.conv_bwd_gflops_parallel32", "GFLOP/s"},
	{"tensor.busy_share", "share"},
	{"nn.train_batch_us_serial", "us"},
	{"nn.train_batch_us_parallel32", "us"},
	{"nn.build_us", "us"},
	{"dataset.generate_us_per_sample", "us"},
	{"codec.none_encode_mb_s", "MB/s"},
	{"codec.q8_encode_mb_s", "MB/s"},
	{"codec.topk_encode_mb_s", "MB/s"},
	{"codec.q8_decode_mb_s", "MB/s"},
	{"codec.topk_decode_mb_s", "MB/s"},
	{"codec.topk_allocs_per_encode", "count"},
	{"codec.share_of_op", "share"},
	{"sim.events_per_s", "1/s"},
	{"comm.bare_ns_per_msg", "ns"},
	{"chaos.wrap_ns_per_msg", "ns"},
	{"obs.wrap_ns_per_msg", "ns"},
	{"obs.tracer_ns_per_msg", "ns"},
	{"hier.route_ns_per_msg", "ns"},
	{"comm.full_stack_ns_per_msg", "ns"},
	{"comm.msgs_per_op", "count"},
	{"comm.bytes_per_op", "B"},
	{"fl.build_ms", "ms"},
	{"fl.run_ms", "ms"},
	{"fl.client_busy_ms", "ms"},
	{"fl.federator_busy_ms", "ms"},
	{"fl.edge_busy_ms", "ms"},
	{"fl.stack_self_ms", "ms"},
	{"fl.virtual_s_per_op", "s"},
	{"fl.final_accuracy", "share"},
	{"fl.offloads_per_op", "count"},
	{"fl.update_bytes_per_op", "B"},
	{"fl.dispatch_bytes_per_op", "B"},
	{"fl.aergia_saving_vs_fedavg", "share"},
	{"hier.hydrations_per_op", "count"},
	{"hier.build_ms_per_100k", "ms"},
	{"hier.sampler_ns_per_client", "ns"},
	{"chaos.crashes_per_op", "count"},
	{"chaos.rejoins_per_op", "count"},
	{"rpc.roundtrip_p50_us", "us"},
	{"rpc.model_msgs_per_s", "1/s"},
	{"runner.cycle_us_per_job", "us"},
	{"runner.local_jobs_per_s", "1/s"},
	{"runner.store_append_p50_us_tmpfs", "us"},
	{"runner.store_append_p50_us_disk", "us"},
	{"runner.store_load_ms_per_10k", "ms"},
	{"runner.store_records_per_job", "count"},
	{"fed.inproc_jobs_per_s", "1/s"},
	{"fed.idle_pickup_p50_ms", "ms"},
	{"aergiad.submit_p50_us", "us"},
	{"aergiad.sweep_submit_ms_per_10k", "ms"},
	{"aergiad.first_event_p50_ms", "ms"},
	{"aergiad.disk_jobs_per_s", "1/s"},
	{"aergiad.ctl_heap_kb_per_job", "kB"},
	{"aergiad.peak_rss_mb", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.trace_overhead", "ratio"},
}

// perCall times f: one call to warm up, then five batches of at least
// 20 ms each; it returns the median batch's time per call.
func perCall(f func()) time.Duration {
	f()
	batches := make([]float64, 5)
	for b := range batches {
		n := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			f()
			n++
		}
		batches[b] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(batches))
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// layerSuite measures every layer in isolation through its public
// functions, with inputs drawn from seed, once per environment, and adds the
// numbers to res. An error inside a layer call is a bug in the harness's use
// of it, so must panics and layerSuite reports it.
func (e *environment) layerSuite(res *result, seed uint64, toy bool) error {
	e.suiteOnce.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.suiteErr = fmt.Errorf("layer suite: %v", r)
			}
		}()
		dir, _, err := runDir(e.benchDir)
		if err != nil {
			e.suiteErr = err
			return
		}
		defer os.RemoveAll(dir)
		e.suite = newResult()
		suiteTensor(e.suite, seed)
		suiteNN(e.suite, seed)
		suiteCodec(e.suite, seed)
		suiteComm(e.suite, seed)
		suiteHier(e.suite, seed, toy)
		suiteRPC(e.suite, seed)
		suiteRunner(e, e.suite, dir, toy)
		suiteFed(e.suite, dir, toy)
	})
	if e.suiteErr != nil {
		return e.suiteErr
	}
	for name, v := range e.suite.metrics {
		res.set(name, v)
	}
	return nil
}

// suiteTensor times the kernels of MNISTSmall's heavier layers: the second
// convolution (6x7x7 -> 12x7x7, 3x3) and the classifier (588 -> 10), with
// the FLOP counts nn's cost model uses.
func suiteTensor(res *result, seed uint64) {
	const (
		convFLOPs  = 2 * (6 * 3 * 3) * (12 * 7 * 7)
		denseFLOPs = 2 * 588 * 10
	)
	for _, name := range []string{"serial", "parallel32"} {
		be := must(tensor.NewBackend(name, 0))
		rng := tensor.NewRNG(seed)
		fill := func(shape ...int) *tensor.Tensor {
			t := tensor.MustNewOf(be.DType(), shape...)
			t.FillNormal(rng, 0.1)
			return t
		}
		x, w, b := fill(6, 7, 7), fill(12, 6, 3, 3), fill(12)
		gy, gw, gb := fill(12, 7, 7), fill(12, 6, 3, 3), fill(12)
		var ws tensor.Workspace
		fwd := perCall(func() { must(be.Conv2DFused(x, w, b, 1, 1, tensor.ActReLU, &ws)) })
		bwd := perCall(func() { must(be.Conv2DGradsFused(x, w, gy, 1, 1, tensor.ActReLU, gw, gb, &ws)) })
		res.set("tensor.conv_fwd_gflops_"+name, convFLOPs/float64(fwd))
		res.set("tensor.conv_bwd_gflops_"+name, 2*convFLOPs/float64(bwd))
		if name == "serial" {
			dw, dx, dgy := fill(10, 588), fill(588), fill(10)
			dgw, dgb := fill(10, 588), fill(10)
			var dws tensor.Workspace
			d := perCall(func() { must(be.DenseBackwardFused(dw, dx, dgy, tensor.ActNone, dgw, dgb, &dws)) })
			res.set("tensor.dense_bwd_gflops_serial", 2*denseFLOPs/float64(d))
		}
	}
}

func suiteNN(res *result, seed uint64) {
	data := must(dataset.Generate(dataset.Config{Kind: dataset.MNIST, N: 8, Seed: seed, Small: true}))
	xss, yss, err := data.Batches(8)
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"serial", "parallel32"} {
		net := must(nn.BuildWith(nn.ArchMNISTSmall, seed, must(tensor.NewBackend(name, 0))))
		opt := nn.NewSGD(0.05)
		d := perCall(func() { must(net.TrainBatch(xss[0], yss[0], opt)) })
		res.set("nn.train_batch_us_"+name, us(d))
	}
	res.set("nn.build_us", us(perCall(func() { must(nn.Build(nn.ArchMNISTSmall, seed)) })))
	const n = 256
	gen := perCall(func() {
		must(dataset.Generate(dataset.Config{Kind: dataset.MNIST, N: n, Seed: seed, Small: true}))
	})
	res.set("dataset.generate_us_per_sample", us(gen)/n)
}

// suiteCodec encodes and decodes a vector of MNISTSmall's parameter count;
// MB/s counts the raw float64 bytes on the uncompressed side.
func suiteCodec(res *result, seed uint64) {
	n := must(nn.Build(nn.ArchMNISTSmall, seed)).ParamCount()
	rng := tensor.NewRNG(seed)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.01 * rng.NormFloat64()
	}
	rate := func(d time.Duration) float64 { return float64(8*n) / d.Seconds() / 1e6 }
	for _, name := range []string{codec.None, codec.Q8, codec.TopK} {
		c := must(codec.New(name))
		res.set("codec."+name+"_encode_mb_s", rate(perCall(func() { must(c.Encode(vals)) })))
		if name == codec.None {
			continue
		}
		wire := must(c.Encode(vals))
		res.set("codec."+name+"_decode_mb_s", rate(perCall(func() { must(c.Decode(wire)) })))
	}
	topk := must(codec.New(codec.TopK))
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		must(topk.Encode(vals))
	}
	runtime.ReadMemStats(&m1)
	res.set("codec.topk_allocs_per_encode", float64(m1.Mallocs-m0.Mallocs)/runs)
}

// echo answers every message to its sender; bouncer sends the next ping
// until its budget is spent.
type echo struct{}

func (echo) OnMessage(env comm.Env, msg comm.Message) {
	env.Send(comm.Message{To: msg.From, Kind: comm.KindTrain, Size: msg.Size})
}

type bouncer struct{ left int }

func (b *bouncer) ping(env comm.Env) {
	env.Send(comm.Message{To: comm.FederatorID, Kind: comm.KindUpdate, Size: 128})
}

func (b *bouncer) OnMessage(env comm.Env, _ comm.Message) {
	if b.left--; b.left > 0 {
		b.ping(env)
	}
}

// pingPong bounces messages between client 0 and the federator over
// sim.Network under wrap, and returns the time per message. The echo is
// also registered as the edge that owns client 0, which is where hier.Route
// sends a client's uplink.
func pingPong(seed uint64, wrap func(comm.Transport) comm.Transport) time.Duration {
	const tiers, trips = 4, 2000
	run := func() {
		tr := wrap(sim.NewNetwork(sim.NewKernel(), sim.UniformLink(time.Millisecond, 1e6)))
		b := &bouncer{left: trips}
		tr.Register(0, b)
		tr.Register(comm.FederatorID, echo{})
		tr.Register(hier.EdgeID(hier.Assign(seed, 0, tiers)), echo{})
		if err := tr.Seal(); err != nil {
			panic(err)
		}
		tr.Invoke(0, b.ping)
		if err := tr.Drive(nil); err != nil {
			panic(err)
		}
		if b.left != 0 {
			panic(fmt.Sprintf("ping-pong stopped with %d trips left", b.left))
		}
		if err := tr.Close(); err != nil {
			panic(err)
		}
	}
	return perCall(run) / (2 * trips)
}

func suiteComm(res *result, seed uint64) {
	// 1000 timers in flight, each rescheduling itself: Schedule and Run at
	// the queue depth a 24-client round keeps.
	const depth, events = 1000, 100000
	kernel := perCall(func() {
		k := sim.NewKernel()
		left := events
		rng := tensor.NewRNG(seed)
		var tick func()
		tick = func() {
			if left--; left > 0 {
				k.Schedule(time.Duration(rng.Intn(1000))*time.Microsecond, tick)
			}
		}
		for i := 0; i < depth; i++ {
			k.Schedule(time.Duration(i)*time.Microsecond, tick)
		}
		k.Run()
	})
	res.set("sim.events_per_s", events/kernel.Seconds())

	const tiers = 4
	// A plan that injects only link delay keeps the ping-pong pair alive
	// while every message still goes through the fault layer's draw.
	plan := chaos.Plan{Delay: time.Millisecond}
	wraps := map[string]func(comm.Transport) comm.Transport{
		"comm.bare_ns_per_msg":  func(t comm.Transport) comm.Transport { return t },
		"chaos.wrap_ns_per_msg": func(t comm.Transport) comm.Transport { return chaos.New(t, plan, seed) },
		"obs.wrap_ns_per_msg":   func(t comm.Transport) comm.Transport { return obs.WrapTransport(t, obs.Default) },
		"obs.tracer_ns_per_msg": func(t comm.Transport) comm.Transport { return obs.NewTracer(seed).Wrap(t) },
		"hier.route_ns_per_msg": func(t comm.Transport) comm.Transport { return hier.Route(t, tiers, seed) },
		"comm.full_stack_ns_per_msg": func(t comm.Transport) comm.Transport {
			t = obs.WrapTransport(chaos.New(t, plan, seed), obs.Default)
			return hier.Route(obs.NewTracer(seed).Wrap(t), tiers, seed)
		},
	}
	for name, wrap := range wraps {
		res.set(name, float64(pingPong(seed, wrap)))
	}
}

func suiteHier(res *result, seed uint64, toy bool) {
	spec := must(specByName("hier_scale"))
	cfg := spec.config(seed, must(tensor.NewBackend(spec.backend, 0)), toy)
	build := perCall(func() { must(cfg.Topology().Build()) })
	res.set("hier.build_ms_per_100k", ms(build)*100000/float64(cfg.Clients))

	ids := make([]comm.NodeID, cfg.Clients)
	for i := range ids {
		ids[i] = comm.NodeID(i)
	}
	s := hier.Sampler{Seed: seed, Fraction: cfg.Hier.Sample}
	round := 0
	cohort := perCall(func() { s.Cohort(round, ids); round++ })
	res.set("hier.sampler_ns_per_client", float64(cohort)/float64(len(ids)))
}

// reflector sends every message back to its sender; waiter signals each
// arrival. A reflector that cannot send reports it on errs, because a panic
// on the peer's read goroutine would take the process down.
type reflector struct {
	peer **rpc.Peer
	errs chan error
}

func (r reflector) OnMessage(_ comm.Env, msg comm.Message) {
	if err := (*r.peer).Send(comm.Message{To: msg.From, Kind: msg.Kind, Payload: msg.Payload}); err != nil {
		select {
		case r.errs <- err:
		default:
		}
	}
}

type waiter struct{ got chan struct{} }

func (w waiter) OnMessage(comm.Env, comm.Message) { w.got <- struct{}{} }

// suiteRPC connects two rpc.Peers on loopback and sends a message there and
// back: a heartbeat-sized control payload for latency, model-sized updates
// for throughput.
func suiteRPC(res *result, seed uint64) {
	fl.RegisterPayloads(rpc.RegisterPayload)
	a := waiter{got: make(chan struct{}, 1)}
	pa := must(rpc.Listen(1, rpc.DefaultAddr, a))
	defer pa.Close()
	var pb *rpc.Peer
	errs := make(chan error, 1)
	pb = must(rpc.Listen(2, rpc.DefaultAddr, reflector{peer: &pb, errs: errs}))
	defer pb.Close()
	pa.AddRoute(2, pb.Addr())
	pb.AddRoute(1, pa.Addr())
	trip := func(msg comm.Message) {
		if err := pa.Send(msg); err != nil {
			panic(err)
		}
		select {
		case <-a.got:
		case err := <-errs:
			panic(err)
		case <-time.After(10 * time.Second):
			panic("rpc echo timed out")
		}
	}

	beat := rpc.HeartbeatPayload{Active: []string{"table1-0123456789abcdef01234567"}, Name: "w1", Addr: pa.Addr(), Slots: 1}
	trips := make([]float64, 300)
	for i := range trips {
		start := time.Now()
		trip(comm.Message{To: 2, Kind: comm.KindControl, Payload: beat})
		trips[i] = us(time.Since(start))
	}
	res.set("rpc.roundtrip_p50_us", median(trips))

	weights := must(nn.Build(nn.ArchMNISTSmall, seed)).SnapshotWeights()
	update := fl.UpdatePayload{Update: fl.Update{Client: 1, NumSamples: 40, Steps: 10, Weights: weights}}
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		trip(comm.Message{To: 2, Kind: comm.KindUpdate, Size: weights.ByteSize(), Payload: update})
	}
	res.set("rpc.model_msgs_per_s", 2*n/time.Since(start).Seconds())
}

func noopExecutor(context.Context, runner.Job) (json.RawMessage, error) {
	return json.RawMessage(`{}`), nil
}

func table1Jobs(first uint64, n int) []runner.Job {
	jobs := make([]runner.Job, n)
	for i := range jobs {
		jobs[i] = must(runner.NewJob("table1", experiments.Options{Quick: true, Seed: first + uint64(i)}))
	}
	return jobs
}

func suiteRunner(env *environment, res *result, dir string, toy bool) {
	n := 2000
	if toy {
		n = 200
	}
	// Submit -> Lease -> Complete on a runner with no local slots, no
	// store and no executor: the queue's own bookkeeping.
	r := runner.New(nil, -1, runner.WithExecutor(noopExecutor))
	jobs := table1Jobs(1, n)
	start := time.Now()
	for _, j := range jobs {
		must(r.Submit(j))
		l := r.Lease("bench", 1)
		if err := r.Complete(l[0].Job.ID(), l[0].Seq, runner.Record{Status: runner.StatusDone}); err != nil {
			panic(err)
		}
	}
	res.set("runner.cycle_us_per_job", us(time.Since(start))/float64(n))
	r.Close()

	st := must(runner.Open(filepath.Join(dir, "local.jsonl")))
	r = runner.New(st, 0, runner.WithExecutor(noopExecutor))
	start = time.Now()
	must(r.SubmitAll(jobs))
	r.Wait()
	res.set("runner.local_jobs_per_s", float64(n)/time.Since(start).Seconds())
	r.Close()
	if err := st.Close(); err != nil {
		panic(err)
	}

	appendP50 := func(path string, n int) float64 {
		st := must(runner.Open(path))
		lat := make([]float64, n)
		for i := range lat {
			rec := runner.Record{ID: fmt.Sprintf("table1-%024x", i), Experiment: "table1",
				Options: experiments.Options{Quick: true, Seed: uint64(i + 1)}, Status: runner.StatusDone,
				Result: json.RawMessage(`{"experiment":"table1"}`)}
			start := time.Now()
			if err := st.Append(rec); err != nil {
				panic(err)
			}
			lat[i] = us(time.Since(start))
		}
		if err := st.Close(); err != nil {
			panic(err)
		}
		return median(lat)
	}
	big := 10000
	if toy {
		big = 500
	}
	tmpfsStore := filepath.Join(dir, "append.jsonl")
	res.set("runner.store_append_p50_us_tmpfs", appendP50(tmpfsStore, big))
	start = time.Now()
	st = must(runner.Open(tmpfsStore))
	res.set("runner.store_load_ms_per_10k", ms(time.Since(start))*10000/float64(big))
	if err := st.Close(); err != nil {
		panic(err)
	}
	// The disk row is informational: one fsync to a shared virtual disk per
	// append, which is what bounds a disk-backed service.
	diskDir := must(scratchDir(env.benchDir, "disk-"))
	defer os.RemoveAll(diskDir)
	res.set("runner.store_append_p50_us_disk", appendP50(filepath.Join(diskDir, "append.jsonl"), 40))
}

// suiteFed runs a control and two one-slot workers in this process, with
// no HTTP on the job path and no-op executors: the lease protocol over rpc
// and the runner under it. The jobs are queued before the workers join, so
// their first lease request finds work and they never wait for a heartbeat;
// idle pickup is then what a job submitted to the drained, idle fleet waits,
// which is the workers' poll on the default 2 s heartbeat.
func suiteFed(res *result, dir string, toy bool) {
	n := 3000
	pickups := 3
	if toy {
		n, pickups = 200, 1
	}
	storePath := filepath.Join(dir, "fed.jsonl")
	st := must(runner.Open(storePath))
	r := runner.New(st, -1)
	ctrl := must(fed.NewControl(r, fed.ControlConfig{}))
	srv := httptest.NewServer(http.HandlerFunc(ctrl.HandleJoin))
	must(r.SubmitAll(table1Jobs(1, n)))
	var executed atomic.Int64
	exec := func(context.Context, runner.Job) (json.RawMessage, error) {
		executed.Add(1)
		return json.RawMessage(`{}`), nil
	}
	start := time.Now()
	var workers []*fed.Worker
	for _, name := range []string{"w1", "w2"} {
		workers = append(workers, must(fed.Join(fed.WorkerConfig{ControlURL: srv.URL, Name: name, Slots: 1, Execute: exec})))
	}
	r.Wait()
	res.set("fed.inproc_jobs_per_s", float64(n)/time.Since(start).Seconds())

	lat := make([]float64, pickups)
	for i := range lat {
		job := table1Jobs(uint64(n+1+i), 1)[0]
		start := time.Now()
		must(r.Submit(job))
		r.Wait()
		lat[i] = ms(time.Since(start))
	}
	res.set("fed.idle_pickup_p50_ms", median(lat))

	for _, w := range workers {
		if err := w.Close(); err != nil {
			panic(err)
		}
	}
	srv.Close()
	if err := ctrl.Close(); err != nil {
		panic(err)
	}
	r.Close()
	if err := st.Close(); err != nil {
		panic(err)
	}
	if got := int(executed.Load()); got != n+pickups {
		panic(fmt.Sprintf("federation executed %d jobs, want %d", got, n+pickups))
	}
	chk := must(checkStore(storePath))
	res.set("runner.store_records_per_job", float64(chk.records)/float64(chk.jobs))
}
