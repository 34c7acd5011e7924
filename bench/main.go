// Command aergia-bench is the repository's benchmark: one process runs one
// named workload at one seed, checks every op's output, and prints every
// metric by name with its unit; the last line of its standard output is the
// result as one JSON object. README.md in this directory defines the
// workloads and metrics and says which layer should move which number.
//
//	go run -C bench . --workload sim_aergia --seed 7 --seconds 20 --trace 0
//	go run -C bench . --workload svc_fed --seed 7 --seconds 20 --trace 1
//	go run -C bench . -aa 2
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// refSeconds is the run length the workloads' op counts are written for;
// BENCHMARK.json's run_seconds is the same number.
const refSeconds = 20

// workloads names every workload, in BENCHMARK.json's order. Why each one
// exists is recorded there, in README.md, and next to its definition.
var workloads = []string{"sim_aergia", "sim_hostile", "hier_scale", "svc_fed"}

type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the system sees, the same five on
// every workload. BENCHMARK.json carries their direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"heap_live_mb", "MB"},
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// toy shrinks every workload to smoke-test size.
	toy bool
}

// environment is where a process's runs happen: this package's directory,
// and what every run in it can share: the daemon binary built into it and
// the layer suite's numbers, which do not depend on the workload.
type environment struct {
	benchDir  string
	buildOnce sync.Once
	daemonBin string
	buildErr  error
	suiteOnce sync.Once
	suite     *result
	suiteErr  error
}

// result is one run's outcome: ops attempted and failed, metrics by name,
// and free-form lines about how the numbers were taken.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
	// storeFS names the filesystem the run's job stores were on.
	storeFS string
}

func newResult() *result { return &result{metrics: make(map[string]float64), storeFS: "none"} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aergia-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aergia-bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input (topology, chaos, job seeds)")
	fs.Float64Var(&o.seconds, "seconds", refSeconds, "run length: op counts scale with it and are fixed for a given value")
	trace := fs.Int("trace", 0, "1 reruns the workload under the harness's spans and decorators and prints the per-layer metrics")
	aa := fs.Int("aa", 0, "run this many full sets of the same binary and compare their medians against the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	benchDir, err := findBenchDir()
	if err != nil {
		return err
	}
	if *aa > 0 {
		return runAA(ctx, out, benchDir, *aa, o.seed, o.seconds)
	}
	if o.seed == 0 || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seed >= 1, -seconds > 0 and -trace 0 or 1")
	}
	o.trace = *trace == 1
	res, err := runWorkload(ctx, out, &environment{benchDir: benchDir}, o)
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed their output check", o.workload, res.failed, res.attempted)
	}
	return nil
}

// runWorkload runs one workload, prints its report and returns its result.
func runWorkload(ctx context.Context, out io.Writer, env *environment, o options) (*result, error) {
	// The workloads are sized for the collector's default pacing and for
	// one scheduler thread per core; a caller's GOGC must not change them.
	defer func(old int) { setGCPercent(old) }(setGCPercent(100))
	var (
		res *result
		err error
	)
	switch {
	case o.workload == "svc_fed" && o.trace:
		res, err = traceSvc(ctx, env, o)
	case o.workload == "svc_fed":
		res, err = runSvc(ctx, env, o)
	case o.trace:
		res, err = traceSim(env, o)
	default:
		res, err = runSim(o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	return res, report(out, o, defs, res)
}

// report prints the environment line, the notes, one line per metric, the
// op counts, and the result object the driver reads.
func report(out io.Writer, o options, defs []metricDef, res *result) error {
	fmt.Fprintf(out, "env: %s nproc=%d gomaxprocs=%d cpu=%q store=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), res.storeFS)
	fmt.Fprintf(out, "run: workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	for _, n := range res.notes {
		fmt.Fprintln(out, "note:", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !o.trace {
			return fmt.Errorf("%s did not measure %s", o.workload, d.name)
		}
		// A per-layer metric a workload has no layer for reads 0.
		fmt.Fprintf(out, "metric: %-40s %16.6f %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	fmt.Fprintf(out, "metric: %-40s %16d count\n", "ops_attempted", res.attempted)
	fmt.Fprintf(out, "metric: %-40s %16d count\n", "ops_failed", res.failed)
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// findBenchDir locates this package's directory, the one beside
// BENCHMARK.json: the working directory under `go run -C bench .` and
// `go test`, or ./bench from the repository root.
func findBenchDir() (string, error) {
	for _, dir := range []string{".", "bench"} {
		if _, err := os.Stat(filepath.Join(dir, "..", "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from bench/ (go run -C bench .)")
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle of xs (the mean of the two middle values when
// there is an even number); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// benchmarkFile is the part of BENCHMARK.json the harness reads: -aa takes
// the bounds from it, and the tests hold its names against the harness's.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(benchDir string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// aaRuns is how many runs of each workload one A/A set holds.
const aaRuns = 5

// runAA is the A/A check: sets full sets of runs of this same binary, run
// interleaved so that drift of the machine lands on every set alike. For
// each workload and end-to-end metric it prints every set's median, the
// worst difference between two sets as a share of the better one, and the
// bound; a pair further apart than the bound fails the check.
func runAA(ctx context.Context, out io.Writer, benchDir string, sets int, seed uint64, seconds float64) error {
	bf, err := readBenchmarkFile(benchDir)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// samples[{workload, metric}][set] holds that set's values.
	samples := make(map[[2]string][][]float64)
	for r := 0; r < aaRuns; r++ {
		for s := 0; s < sets; s++ {
			for _, w := range workloads {
				cmd := exec.CommandContext(ctx, self, "-workload", w,
					"-seed", fmt.Sprint(seed+uint64(r)), "-seconds", fmt.Sprint(seconds))
				cmd.Dir = benchDir
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("set %d run %d of %s: %w", s+1, r+1, w, err)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var got struct {
					Metrics map[string]struct{ Value float64 } `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					return fmt.Errorf("set %d run %d of %s: result line: %w", s+1, r+1, w, err)
				}
				for _, e := range bf.EndToEnd {
					key := [2]string{w, e.Name}
					if samples[key] == nil {
						samples[key] = make([][]float64, sets)
					}
					samples[key][s] = append(samples[key][s], got.Metrics[e.Name].Value)
				}
			}
		}
	}
	fmt.Fprintf(out, "A/A: %d sets x %d runs per workload, seeds %d..%d, %g s runs, %s, nproc=%d, cpu=%q\n",
		sets, aaRuns, seed, seed+aaRuns-1, seconds, runtime.Version(), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(out, "%-12s %-16s %-40s %10s %8s\n", "workload", "metric", "set medians", "worst", "bound")
	failed := 0
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			medians := make([]float64, sets)
			cells := make([]string, sets)
			for s := range medians {
				medians[s] = median(samples[[2]string{w, e.Name}][s])
				cells[s] = fmt.Sprintf("%.6g", medians[s])
			}
			lo, hi := medians[0], medians[0]
			for _, m := range medians[1:] {
				lo, hi = min(lo, m), max(hi, m)
			}
			// Worse relative to better: for a lower-is-better metric the
			// base is the lower median, and the other way round.
			worst := hi/lo - 1
			if e.Better == "higher" {
				worst = 1 - lo/hi
			}
			verdict := "ok"
			if worst > e.Bound {
				verdict = "BEYOND BOUND"
				failed++
			}
			fmt.Fprintf(out, "%-12s %-16s %-40s %9.2f%% %7.0f%%  %s\n",
				w, e.Name, strings.Join(cells, " "), 100*worst, 100*e.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d workload x metric pairs differ by more than their bound", failed)
	}
	return nil
}
