// Command aergia regenerates the paper's tables and figures.
//
// Usage:
//
//	aergia -experiment fig6                       # full-scale run of one experiment
//	aergia -experiment all -quick                 # quick pass over every experiment
//	aergia -experiment fig6 -backend serial32     # float32 model math
//	aergia -experiment fig6 -json                 # machine-readable result record
//	aergia -experiment fig4 -transport tcp        # same actors over real loopback TCP
//	aergia -experiment fig-churn -chaos 'churn=0.3,rejoin=1'  # faulted run
//	aergia -experiment fig-bandwidth -quick       # bandwidth-vs-accuracy per codec
//	aergia -experiment fig6 -codec topk           # sparsified update payloads
//	aergia -experiment fig6 -sample 0.25          # 25% client cohort per round
//	aergia -experiment fig6 -sample 0.25 -tiers 4 # + edge aggregation tiers
//	aergia -list                                  # list experiment IDs
//	aergia -sweep '{"experiments":["fig6"],"seeds":[1,2,3]}' -store out.jsonl
//	aergia -sweep @grid.json -store out.jsonl -jobs 4
//	aergia -experiment fig4 -quick -trace-out run.json   # Perfetto-loadable timeline
//	aergia -experiment fig4 -quick -metrics-out metrics.prom  # final metrics scrape + quantile summary
//	aergia -experiment fig4 -quick -spans-out spans.jsonl     # causal message spans as JSONL
//
// The -backend flag selects the element type of all model math: serial is
// float64, the golden-pinned reference; serial32 is float32, deterministic
// across reruns but different from float64 by rounding (DESIGN.md §9).
// parallel and parallel32 are accepted as aliases of the two. Every run
// uses all cores whatever the backend: its clients train side by side
// (DESIGN.md §14).
//
// The -transport flag selects the message transport the federator/client
// actors run on (DESIGN.md §6): sim is the deterministic virtual-time
// simulator, tcp binds the same cluster to real TCP peers on loopback.
// Model math is identical either way, but tcp runs in wall-clock time —
// a simulated hour takes an hour — so pair it with -quick and the
// timing-light experiments when exercising the real-RPC path, and raise
// -transport-timeout (default 2m per run) for anything longer.
//
// The -chaos flag injects a deterministic fault schedule (client crashes,
// rejoins, compute spikes, lossy links — DESIGN.md §7) into every FL run of
// the experiment. The same spec perturbs both transports; on sim the
// faulted trajectory is exactly reproducible, over tcp event times are
// wall-clock (best-effort). Both -transport and -chaos are validated at
// flag-parse time.
//
// The -codec flag selects the wire codec for model-update payloads in
// every FL run of the experiment (DESIGN.md §8): none ships raw float64
// snapshots, q8 quantizes update deltas to int8 (~8x fewer update bytes),
// topk sparsifies them with client-side residual accumulation (~6x). The
// reduction shows up in the per-run bandwidth counters and, on the sim
// transport's modeled links, in training time. Like -transport and -chaos
// it is validated at flag-parse time.
//
// The -sample and -tiers flags enable the scale-out path (DESIGN.md §11):
// -sample draws a seed-deterministic client cohort each round (a fraction
// in [0, 1]; 0 and 1 both mean everyone participates), and -tiers inserts
// that many edge aggregators between the clients and the root federator,
// so the root combines a handful of pre-aggregated deltas instead of one
// update per client. Unsampled clients stay lazy profiles — no model, no
// shard — until a round first selects them. Like -transport, -chaos, and
// -codec, both are validated at flag-parse time.
//
// -json swaps the text report for one canonical JSON record per experiment
// — the same bytes the result store and the aergiad daemon persist, so
// outputs are diffable across entry points.
//
// -sweep runs a parameter grid through the in-process job runner (the same
// engine behind aergiad): the spec is inline JSON or @file, -jobs bounds
// the concurrent jobs, and -store makes the run resumable — re-running a
// sweep against an existing store computes only the missing cells.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"aergia/internal/chaos"
	"aergia/internal/codec"
	"aergia/internal/experiments"
	"aergia/internal/fl"
	"aergia/internal/hier"
	"aergia/internal/metrics"
	"aergia/internal/obs"
	"aergia/internal/runner"
	"aergia/internal/trace"
)

func main() {
	// SIGQUIT is the wedged-run post-mortem: dump the flight recorder's
	// recent span/fault events plus all goroutine stacks (installing a
	// handler replaces Go's default dump) and exit.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		<-quit
		obs.FlightDefault.Dump(os.Stderr)
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		_, _ = os.Stderr.Write(buf[:n])
		os.Exit(2)
	}()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aergia:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aergia", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		experiment       = fs.String("experiment", "", "experiment ID (see -list) or 'all'")
		quick            = fs.Bool("quick", false, "use the reduced benchmark-scale configuration")
		seed             = fs.Uint64("seed", 1, "experiment seed")
		backend          = fs.String("backend", "serial", "compute backend: serial (float64) or serial32 (float32)")
		transport        = fs.String("transport", "sim", "message transport: sim (virtual time) or tcp (real loopback TCP)")
		transportTimeout = fs.Duration("transport-timeout", 0,
			"wall-clock bound per tcp run (0 = 2m default); tcp runs take the real time they simulate")
		chaosSpec = fs.String("chaos", "",
			"fault schedule spec, e.g. 'churn=0.3,rejoin=1,window=2s' (keys: "+chaos.SpecKeys()+")")
		codecName = fs.String("codec", "none",
			"wire codec for model-update payloads: "+codec.Names())
		sample = fs.Float64("sample", 0,
			"per-round client sampling fraction in [0, 1] (0 or 1 = everyone participates)")
		tiers = fs.Int("tiers", 0,
			"edge aggregation tiers between clients and the root federator (0 = flat)")
		jsonOut    = fs.Bool("json", false, "emit canonical JSON result records instead of text reports")
		sweepSpec  = fs.String("sweep", "", "run a sweep grid: inline JSON spec or @file")
		storePath  = fs.String("store", "", "result store for -sweep (JSONL, append-only, resumable)")
		jobs       = fs.Int("jobs", 0, "concurrent jobs for -sweep (0 = GOMAXPROCS)")
		list       = fs.Bool("list", false, "list available experiments")
		metricsOut = fs.String("metrics-out", "",
			"write a final Prometheus text-format metrics dump to this file, plus a p50/p95/p99 quantile summary per latency family to stdout")
		traceOut = fs.String("trace-out", "",
			"write the run's event timeline as Chrome trace-event JSON (Perfetto/chrome://tracing) to this file")
		spansOut = fs.String("spans-out", "",
			"write the run's causal message spans as JSONL (one span per line) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate the enumerated flags right at parse time, so a typo fails in
	// one line here instead of deep inside the transport constructor after
	// datasets were already generated.
	if _, err := fl.CanonicalTransport(*transport); err != nil {
		return fmt.Errorf("invalid -transport %q (allowed values: %s, %s)",
			*transport, fl.TransportSim, fl.TransportTCP)
	}
	if _, err := codec.Canonical(*codecName); err != nil {
		return fmt.Errorf("invalid -codec %q (allowed values: %s)", *codecName, codec.Names())
	}
	if *sample < 0 || *sample > 1 {
		return fmt.Errorf("invalid -sample %v (allowed values: 0 through 1)", *sample)
	}
	if *tiers < 0 {
		return fmt.Errorf("invalid -tiers %d (allowed values: 0 or more)", *tiers)
	}
	hierOpts, err := hier.Options{Sample: *sample, Tiers: *tiers}.Normalized()
	if err != nil {
		return fmt.Errorf("invalid -sample/-tiers: %v", err)
	}
	// ParseSpec errors already name the offending key/value and list the
	// accepted keys where that helps.
	chaosPlan, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		return fmt.Errorf("invalid -chaos %q: %v", *chaosSpec, err)
	}
	if *list {
		fmt.Fprintln(out, "available experiments:")
		for _, name := range experiments.Names() {
			fmt.Fprintf(out, "  %s\n", name)
		}
		return nil
	}
	if *sweepSpec != "" {
		// The sweep spec defines its own quick/seed/backend axes;
		// silently ignoring the single-run flags would run the wrong grid.
		var conflicts []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			// -trace-out and -spans-out conflict too: one trace/span file
			// cannot attribute events across a grid of concurrent runs.
			case "experiment", "quick", "seed", "backend", "transport", "transport-timeout", "chaos", "codec", "sample", "tiers", "trace-out", "spans-out":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("-sweep defines its own grid; drop %s and put the axes in the spec",
				strings.Join(conflicts, ", "))
		}
		if err := runSweep(*sweepSpec, *storePath, *jobs, *jsonOut, out); err != nil {
			return err
		}
		return dumpMetrics(*metricsOut)
	}
	if *storePath != "" || *jobs != 0 {
		// Persistence and job slots belong to sweep mode; silently ignoring
		// them would tell the user their result was stored when it wasn't.
		return fmt.Errorf("-store and -jobs require -sweep")
	}
	if *experiment == "" {
		return fmt.Errorf("missing -experiment (or -list / -sweep); available: %s",
			strings.Join(experiments.Names(), ", "))
	}
	opt := experiments.Options{
		Quick: *quick, Seed: *seed, Backend: *backend,
		Transport: *transport, TransportTimeout: *transportTimeout,
		Chaos: chaosPlan, Codec: *codecName,
		Hier: hierOpts,
	}
	if *traceOut != "" {
		opt.Trace = trace.NewLog()
	}
	if *spansOut != "" {
		opt.Spans = obs.NewSpanLog()
	}
	names := []string{*experiment}
	if *experiment == "all" {
		names = experiments.Names()
	}
	for i, name := range names {
		// experiments.Run validates the options, so a bad -backend fails on
		// the first experiment before any work starts.
		rec, err := experiments.Run(name, opt)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
		if *jsonOut {
			line, err := rec.Marshal()
			if err != nil {
				return fmt.Errorf("experiment %s: %w", name, err)
			}
			fmt.Fprintln(out, string(line))
			continue
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := rec.Render(out); err != nil {
			return fmt.Errorf("experiment %s: %w", name, err)
		}
	}
	if err := dumpTrace(*traceOut, opt.Trace); err != nil {
		return err
	}
	if err := dumpSpans(*spansOut, opt.Spans); err != nil {
		return err
	}
	return dumpMetricsSummary(*metricsOut, out)
}

// dumpTrace writes the collected timeline as Chrome trace-event JSON.
func dumpTrace(path string, log *trace.Log) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	if err := log.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	return nil
}

// dumpSpans writes the collected causal spans as JSONL.
func dumpSpans(path string, log *obs.SpanLog) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans out: %w", err)
	}
	if err := log.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("spans out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans out: %w", err)
	}
	return nil
}

// dumpMetrics writes a final scrape of the process registry — the batch
// counterpart of aergiad's GET /metrics.
func dumpMetrics(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics out: %w", err)
	}
	if err := obs.Default.WriteText(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("metrics out: %w", err)
	}
	return nil
}

// dumpMetricsSummary is dumpMetrics plus the human-readable half: a
// p50/p95/p99 line per histogram family printed to the report writer, so
// "how slow were the links" doesn't require pasting exposition text into a
// Prometheus server.
func dumpMetricsSummary(path string, out io.Writer) error {
	if err := dumpMetrics(path); err != nil {
		return err
	}
	if path == "" {
		return nil
	}
	fmt.Fprintln(out, "\nlatency quantiles (p50/p95/p99 interpolated from histogram buckets):")
	return obs.Default.WriteQuantiles(out)
}

// runSweep drives a parameter grid through the in-process runner — the
// same engine aergiad serves over HTTP.
func runSweep(spec, storePath string, jobs int, jsonOut bool, out io.Writer) error {
	raw := []byte(spec)
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return fmt.Errorf("read sweep spec: %w", err)
		}
		raw = data
	}
	var sweep runner.Sweep
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sweep); err != nil {
		return fmt.Errorf("parse sweep spec: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("parse sweep spec: trailing content after the grid object")
	}
	expanded, err := sweep.Expand()
	if err != nil {
		return err
	}

	var store *runner.Store
	if storePath != "" {
		store, err = runner.Open(storePath)
		if err != nil {
			return err
		}
		defer store.Close()
	}
	r := runner.New(store, jobs)
	defer r.Close()
	if _, err := r.SubmitAll(expanded); err != nil {
		return err
	}
	r.Wait()

	var failed int
	if jsonOut {
		for _, job := range expanded {
			st, _ := r.Result(job.ID())
			line, err := json.Marshal(st)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(line))
			if st.Status != runner.StatusDone {
				failed++
			}
		}
	} else {
		tbl := metrics.NewTable("job", "experiment", "seed", "backend", "status", "wall-clock")
		for _, job := range expanded {
			st, _ := r.Get(job.ID())
			tbl.AddRow(st.ID, st.Experiment, st.Options.Seed, st.Options.Backend, string(st.Status), st.Elapsed)
			if st.Status != runner.StatusDone {
				failed++
			}
		}
		fmt.Fprintf(out, "sweep: %d jobs, %d slots\n", len(expanded), r.Slots())
		fmt.Fprint(out, tbl.String())
	}
	if failed > 0 {
		return fmt.Errorf("sweep: %d of %d jobs failed", failed, len(expanded))
	}
	return nil
}
