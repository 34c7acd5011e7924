package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The service workload's sizes at refSeconds. table1 does no FL work, so
// the burst is the control plane and nothing else; fig9 is the cheapest job
// that trains, so lone is what one interactive user waits for.
const (
	svcWarmJobs  = 400
	svcBurstJobs = 60000
	svcLoneJobs  = 8
	// svcSweep is the largest sweep posted in one request: its seed list
	// stays far below aergiad's 1 MiB body limit.
	svcSweep = 5000
)

// fleet is one control daemon and its workers, each in its own process
// group, with every file they write under dir.
type fleet struct {
	dir     string
	base    string
	store   string
	daemons []*daemon
	control *daemon
	http    *http.Client
	spans   *spanLog // nil unless traced
}

// daemon is one aergiad process; exited is closed once it has been waited
// for.
type daemon struct {
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
}

// daemon compiles cmd/aergiad into bench/.build, once per environment, and
// returns its path.
func (e *environment) daemon(ctx context.Context) (string, error) {
	e.buildOnce.Do(func() {
		e.daemonBin = filepath.Join(e.benchDir, ".build", "aergiad")
		cmd := exec.CommandContext(ctx, "go", "build", "-o", e.daemonBin, "aergia/cmd/aergiad")
		cmd.Dir = e.benchDir
		if out, err := cmd.CombinedOutput(); err != nil {
			e.buildErr = fmt.Errorf("build aergiad: %v\n%s", err, out)
		}
	})
	return e.daemonBin, e.buildErr
}

// runDir makes the per-run directory for stores and logs: on tmpfs when
// /dev/shm is writable, so that no number depends on fsync to a shared
// disk, and otherwise under bench/.build. fs names which one it is.
func runDir(benchDir string) (dir, fs string, err error) {
	if dir, err = os.MkdirTemp("/dev/shm", "aergia-bench-"); err == nil {
		return dir, "tmpfs:/dev/shm", nil
	}
	dir, err = scratchDir(benchDir, "run-")
	return dir, "disk:bench/.build (no writable /dev/shm: store numbers are fsync-bound)", err
}

// scratchDir makes a fresh directory under bench/.build, on the
// repository's disk.
func scratchDir(benchDir, prefix string) (string, error) {
	root := filepath.Join(benchDir, ".build")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// freePort asks the kernel for an unused loopback port. aergiad logs the
// address it was given, not the one it bound, so ":0" cannot be used; a
// port lost to a race before the daemon binds it fails the start, which
// startFleet retries.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startFleet starts one control (no local slots, pprof on) and workers
// one-slot workers, and returns once every worker is registered. preload,
// when set, runs between the two: jobs it queues are there when the workers'
// first lease request arrives, so they start at once and not on their first
// heartbeat.
func startFleet(ctx context.Context, bin, dir string, workers int, preload func(*fleet) error) (*fleet, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		f := &fleet{
			dir:   dir,
			base:  fmt.Sprintf("http://127.0.0.1:%d", port),
			store: filepath.Join(dir, fmt.Sprintf("store-%d.jsonl", attempt)),
			// One connection per concurrent request and no idle timeout
			// games: the harness never has more than two requests open.
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		}
		ctl, err := f.spawn(bin, "control", "-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-store", f.store, "-jobs", "-1", "-pprof")
		if err == nil {
			f.control = ctl
			if err = f.awaitControl(ctx); err == nil && preload != nil {
				err = preload(f)
			}
			if err == nil {
				for i := 1; i <= workers && err == nil; i++ {
					_, err = f.spawn(bin, fmt.Sprintf("w%d", i), "-worker", "-join", f.base,
						"-name", fmt.Sprintf("w%d", i), "-jobs", "1")
				}
				if err == nil {
					err = f.awaitWorkers(ctx, workers)
				}
			}
		}
		if err == nil {
			return f, nil
		}
		lastErr = err
		f.stop()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("start fleet: %w", lastErr)
}

// spawn starts one daemon in its own process group with its output in
// dir/<name>.log. Pdeathsig covers the exit path no handler can: the
// harness itself being killed.
func (f *fleet) spawn(bin, name string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(f.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemons get the collector's default pacing whatever the caller's
	// environment says, like the harness itself.
	cmd.Env = append(os.Environ(), "GOGC=100")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled daemon says nothing
		close(d.exited)
	}()
	f.daemons = append(f.daemons, d)
	return d, nil
}

// stop ends every daemon: SIGTERM to each process group, workers first so
// they say Bye, then SIGKILL to whatever is left after five seconds. It
// returns when all have been waited for.
func (f *fleet) stop() {
	grace := time.After(5 * time.Second)
	for i := len(f.daemons) - 1; i >= 0; i-- {
		d := f.daemons[i]
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-grace:
			for _, d := range f.daemons {
				_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
			}
		}
	}
	for _, d := range f.daemons {
		<-d.exited
		d.log.Close()
	}
	f.daemons = nil
	f.http.CloseIdleConnections()
}

func (f *fleet) awaitControl(ctx context.Context) error {
	return f.await(ctx, "control /healthz", func() bool {
		resp, err := f.http.Get(f.base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

func (f *fleet) awaitWorkers(ctx context.Context, n int) error {
	return f.await(ctx, "workers to register", func() bool {
		var body struct {
			Workers []struct{} `json:"workers"`
		}
		return f.getJSON("/workers", &body) == nil && len(body.Workers) >= n
	})
}

// await polls ready every 10 ms for up to ten seconds, and gives up at once
// if the control has exited (a lost port race, a locked store).
func (f *fleet) await(ctx context.Context, what string, ready func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !ready() {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-f.control.exited:
			return fmt.Errorf("control exited while waiting for %s", what)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func (f *fleet) getJSON(path string, into any) error {
	defer f.spans.start("http", "GET "+path).end()
	resp, err := f.http.Get(f.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// submit posts one request body to /jobs and returns the job IDs in the
// order the daemon expanded them.
func (f *fleet) submit(body any) ([]string, error) {
	defer f.spans.start("http", "POST /jobs").end()
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := f.http.Post(f.base+"/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("POST /jobs: %s: %s", resp.Status, msg)
	}
	var out struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	ids := make([]string, len(out.Jobs))
	for i, j := range out.Jobs {
		ids[i] = j.ID
	}
	return ids, nil
}

// jobBody is a POST /jobs request for one quick run.
func jobBody(experiment string, seed uint64) any {
	return map[string]any{"experiment": experiment, "options": map[string]any{"quick": true, "seed": seed}}
}

// sweepBody is a POST /jobs sweep of quick runs of one experiment.
func sweepBody(experiment string, seeds []uint64) any {
	return map[string]any{"sweep": map[string]any{
		"experiments": []string{experiment}, "seeds": seeds, "quick": []bool{true},
	}}
}

// submitSweeps posts n quick jobs of experiment as back-to-back sweeps with
// seeds first, first+1, ... and returns all IDs in queue order.
func (f *fleet) submitSweeps(experiment string, first uint64, n int) ([]string, error) {
	ids := make([]string, 0, n)
	for done := 0; done < n; {
		k := min(svcSweep, n-done)
		seeds := make([]uint64, k)
		for i := range seeds {
			seeds[i] = first + uint64(done+i)
		}
		got, err := f.submit(sweepBody(experiment, seeds))
		if err != nil {
			return nil, err
		}
		if len(got) != k {
			return nil, fmt.Errorf("sweep of %d seeds expanded to %d jobs", k, len(got))
		}
		ids = append(ids, got...)
		done += k
	}
	return ids, nil
}

// follow reads a job's SSE stream to "event: done" and reports when the
// first event of any kind arrived. A stream that ends without done is an
// error: the job's fate is unknown.
func (f *fleet) follow(ctx context.Context, id string) (first time.Time, err error) {
	defer f.spans.start("sse", id).end()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return first, err
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return first, fmt.Errorf("GET events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		if first.IsZero() {
			first = time.Now()
		}
		if line == "event: done" {
			return first, nil
		}
	}
	if err := sc.Err(); err != nil {
		return first, err
	}
	return first, errors.New("event stream of " + id + " ended without done")
}

// loneJob submits one quick fig9 job and follows it to done: the closed
// loop of one interactive user. It returns the time from submission to the
// first event and to done.
func (f *fleet) loneJob(ctx context.Context, seed uint64) (first, done time.Duration, err error) {
	start := time.Now()
	ids, err := f.submit(jobBody("fig9", seed))
	if err != nil {
		return 0, 0, err
	}
	at, err := f.follow(ctx, ids[0])
	return at.Sub(start), time.Since(start), err
}

// followTail waits for the last two jobs of a FIFO batch. Two workers with
// one slot each finish jobs in queue order to within one job, so when both
// are done the batch is done; the store check after shutdown proves it.
func (f *fleet) followTail(ctx context.Context, ids []string) error {
	for i := len(ids) - 1; i >= max(0, len(ids)-2); i-- {
		if _, err := f.follow(ctx, ids[i]); err != nil {
			return err
		}
	}
	return nil
}

// heapStats is the part of the control's runtime.MemStats the pprof heap
// page prints in its trailer.
type heapStats struct {
	totalAlloc, heapAlloc uint64
}

var memStatLine = regexp.MustCompile(`(?m)^# (TotalAlloc|HeapAlloc) = (\d+)$`)

// controlHeap forces a GC in the control and reads its MemStats through
// /debug/pprof/heap. Workers serve no HTTP, so theirs cannot be read.
func (f *fleet) controlHeap() (heapStats, error) {
	defer f.spans.start("http", "GET /debug/pprof/heap").end()
	resp, err := f.http.Get(f.base + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return heapStats{}, err
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		return heapStats{}, err
	}
	var hs heapStats
	for _, m := range memStatLine.FindAllSubmatch(page, -1) {
		v, err := strconv.ParseUint(string(m[2]), 10, 64)
		if err != nil {
			return heapStats{}, err
		}
		if string(m[1]) == "TotalAlloc" {
			hs.totalAlloc = v
		} else {
			hs.heapAlloc = v
		}
	}
	if hs.totalAlloc == 0 || hs.heapAlloc == 0 {
		return heapStats{}, errors.New("pprof heap page has no MemStats trailer")
	}
	return hs, nil
}

// peakRSS reads a process's high-water resident set from /proc, in MB.
func peakRSS(pid int) float64 {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// storeCheck reads a control store after shutdown: how many jobs ended done,
// how many distinct jobs it mentions, how many records it holds, and how
// many jobs have more than one done record.
type storeCheck struct {
	done, jobs, records, duplicates int
}

func checkStore(path string) (storeCheck, error) {
	file, err := os.Open(path)
	if err != nil {
		return storeCheck{}, err
	}
	defer file.Close()
	dones := make(map[string]int)
	seen := make(map[string]struct{})
	var c storeCheck
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var rec struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return c, fmt.Errorf("store line %d: %w", c.records+1, err)
		}
		c.records++
		seen[rec.ID] = struct{}{}
		if rec.Status == "done" {
			dones[rec.ID]++
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	c.jobs, c.done = len(seen), len(dones)
	for _, n := range dones {
		if n > 1 {
			c.duplicates++
		}
	}
	return c, nil
}

// svcSizes are the job counts of one run.
type svcSizes struct{ warm, burst, lone int }

func svcSizesFor(seconds float64, toy bool) svcSizes {
	if toy {
		return svcSizes{warm: 20, burst: 200, lone: 1}
	}
	return svcSizes{warm: svcWarmJobs, burst: scaledOps(svcBurstJobs, seconds), lone: scaledOps(svcLoneJobs, seconds)}
}

// runSvc is the svc_fed workload: burst then lone against a real fleet.
//
// Set-up runs from process start of the control to the last warm-up job's
// done; it includes the workers' first heartbeat, because a worker that
// joined an empty queue polls again only then. The burst is queued behind
// the warm-up before that, so the workers go from one to the other without
// idling and the burst clock starts at the warm-up's last done.
func runSvc(ctx context.Context, env *environment, o options) (*result, error) {
	bin, err := env.daemon(ctx)
	if err != nil {
		return nil, err
	}
	dir, fs, err := runDir(env.benchDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sizes := svcSizesFor(o.seconds, o.toy)
	res := newResult()
	res.storeFS = fs
	res.attempted = sizes.warm + sizes.burst + sizes.lone
	jobSeed := o.seed * 1_000_000

	setupStart := time.Now()
	f, err := startFleet(ctx, bin, dir, 2, nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	before, err := f.controlHeap()
	if err != nil {
		return nil, err
	}
	warm, err := f.submitSweeps("table1", jobSeed, sizes.warm)
	if err != nil {
		return nil, err
	}
	// The warm-up's end is watched on a second connection while the burst
	// is being queued behind it on the first.
	warmDone := make(chan error, 1)
	var burstStart time.Time
	go func() {
		err := f.followTail(ctx, warm)
		burstStart = time.Now()
		warmDone <- err
	}()
	burst, err := f.submitSweeps("table1", jobSeed+uint64(sizes.warm), sizes.burst)
	if werr := <-warmDone; err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	res.set("setup_s", burstStart.Sub(setupStart).Seconds())
	// The rate is the whole burst's, so that a stall of any length costs what
	// it cost; the sweeps' own rates go to the note line, where they show
	// whether a slow burst was slow throughout or paused once.
	rates := make([]float64, 0, len(burst)/svcSweep+1)
	mark := burstStart
	for done := 0; done < len(burst); done += svcSweep {
		sweep := burst[done:min(done+svcSweep, len(burst))]
		if err := f.followTail(ctx, sweep); err != nil {
			return nil, err
		}
		now := time.Now()
		rates = append(rates, float64(len(sweep))/now.Sub(mark).Seconds())
		mark = now
	}
	burstWall := mark.Sub(burstStart)
	after, err := f.controlHeap()
	if err != nil {
		return nil, err
	}
	res.notef("svc_fed: burst %d jobs in %.3fs, jobs/s by sweep %.0f", sizes.burst, burstWall.Seconds(), rates)
	res.set("ops_per_s", float64(sizes.burst)/burstWall.Seconds())
	// Allocation is taken over warm-up and burst together: reading the
	// heap page between them would put a forced GC on the burst clock.
	res.set("alloc_mb_per_op", mb(after.totalAlloc-before.totalAlloc)/float64(sizes.warm+sizes.burst))
	res.set("heap_live_mb", mb(after.heapAlloc))

	lat := make([]float64, sizes.lone)
	for i := range lat {
		_, done, err := f.loneJob(ctx, jobSeed+900_000+uint64(i))
		if err != nil {
			return nil, err
		}
		lat[i] = ms(done)
	}
	res.notef("svc_fed: lone submit to done %.0f ms", lat)
	res.set("op_p50_ms", median(lat))

	f.stop()
	chk, err := checkStore(f.store)
	if err != nil {
		return nil, err
	}
	res.failed = res.attempted - chk.done + chk.duplicates
	if chk.jobs != res.attempted {
		res.failed = max(res.failed, 1)
	}
	res.notef("svc_fed: store holds %d records, %d jobs, %d done, %d with duplicate done records", chk.records, chk.jobs, chk.done, chk.duplicates)
	return res, nil
}

// traceSvc is the traced run of svc_fed: two equal bursts in one fleet, the
// first as an untraced run makes its calls and the second with a span around
// every HTTP call and SSE wait; lone jobs with a span per op; single-job
// submissions; a second fleet with its store on the repository's disk; and
// the layer suite.
func traceSvc(ctx context.Context, env *environment, o options) (*result, error) {
	bin, err := env.daemon(ctx)
	if err != nil {
		return nil, err
	}
	dir, fs, err := runDir(env.benchDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	warm, burst, lone, singles, disk := 1000, 10000, 3, 100, 5000
	if o.toy {
		warm, burst, lone, singles, disk = 20, 100, 1, 10, 100
	}
	res := newResult()
	res.storeFS = fs
	jobSeed := o.seed * 1_000_000
	log := newSpanLog()

	f, err := startFleet(ctx, bin, dir, 2, nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	before, err := f.controlHeap()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	// Everything is queued before the workers' first heartbeat lets them
	// start, so the batches run back to back: the warm-up, then four
	// quarter-bursts, the outer two followed as an untraced run follows
	// them and the inner two with a span around every call, so that drift
	// over the second they take lands on both sides alike.
	submitStart := time.Now()
	batches := make([][]string, 5)
	sizes := []int{warm, burst / 2, burst / 2, burst / 2, burst / 2}
	first := jobSeed
	for i, n := range sizes {
		if batches[i], err = f.submitSweeps("table1", first, n); err != nil {
			return nil, err
		}
		first += uint64(n)
	}
	res.set("aergiad.sweep_submit_ms_per_10k", ms(time.Since(submitStart))*10000/float64(warm+2*burst))
	var plain, traced time.Duration
	for i, ids := range batches {
		inner := i == 2 || i == 3
		var leave func() time.Duration
		if inner {
			f.spans = log
			leave = log.enter("phase", fmt.Sprintf("burst %d", i))
		}
		start := time.Now()
		if err := f.followTail(ctx, ids); err != nil {
			return nil, err
		}
		switch {
		case inner:
			traced += time.Since(start)
			leave()
			f.spans = nil
		case i > 0:
			plain += time.Since(start)
		}
	}
	res.set("runtime.trace_overhead", traced.Seconds()/plain.Seconds())
	f.spans = log
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&m1)
	// The harness is the load generator here: its collector's work per job.
	res.set("runtime.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/float64(warm+2*burst))
	res.set("runtime.gc_cpu_share", gcShare(gc0, cpu0, gc1, cpu1))
	after, err := f.controlHeap()
	if err != nil {
		return nil, err
	}
	res.set("aergiad.ctl_heap_kb_per_job", float64(after.heapAlloc-before.heapAlloc)/1024/float64(warm+2*burst))

	firsts := make([]float64, lone)
	for i := range firsts {
		leave := log.enter("op", fmt.Sprintf("lone %d", i))
		first, _, err := f.loneJob(ctx, jobSeed+900_000+uint64(i))
		leave()
		if err != nil {
			return nil, err
		}
		firsts[i] = ms(first)
	}
	res.notef("svc_fed: lone submit to first event %.0f ms", firsts)
	res.set("aergiad.first_event_p50_ms", median(firsts))

	leave := log.enter("phase", "singles")
	posts := make([]float64, singles)
	singleIDs := make([]string, 0, singles)
	for i := range posts {
		start := time.Now()
		ids, err := f.submit(jobBody("table1", jobSeed+950_000+uint64(i)))
		if err != nil {
			return nil, err
		}
		posts[i] = us(time.Since(start))
		singleIDs = append(singleIDs, ids...)
	}
	res.set("aergiad.submit_p50_us", median(posts))
	if err := f.followTail(ctx, singleIDs); err != nil {
		return nil, err
	}
	leave()
	res.set("aergiad.peak_rss_mb", peakRSS(f.control.cmd.Process.Pid))
	f.stop()
	res.attempted = warm + 2*burst + lone + singles
	chk, err := checkStore(f.store)
	if err != nil {
		return nil, err
	}
	res.failed = res.attempted - chk.done + chk.duplicates

	// The same burst with the store on the repository's disk: one fsync per
	// record. The jobs are queued before the workers join, and the clock
	// runs from the first job's done to the last's.
	diskDir, err := scratchDir(env.benchDir, "disk-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(diskDir)
	var diskIDs []string
	df, err := startFleet(ctx, bin, diskDir, 2, func(f *fleet) (err error) {
		diskIDs, err = f.submitSweeps("table1", jobSeed+960_000, disk)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer df.stop()
	if _, err := df.follow(ctx, diskIDs[0]); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := df.followTail(ctx, diskIDs); err != nil {
		return nil, err
	}
	res.set("aergiad.disk_jobs_per_s", float64(disk-1)/time.Since(start).Seconds())
	df.stop()
	res.attempted += disk
	if chk, err = checkStore(df.store); err != nil {
		return nil, err
	}
	res.failed += disk - chk.done + chk.duplicates

	if err := env.layerSuite(res, o.seed, o.toy); err != nil {
		return nil, err
	}
	res.set("runtime.peak_rss_mb", peakRSS(os.Getpid()))
	spans := log.finish()
	cov := coverage(spans)
	res.notef("svc_fed: bursts of %d jobs took %.3fs untraced and %.3fs traced; lone op spans' children cover %.1f%%",
		burst, plain.Seconds(), traced.Seconds(), 100*cov)
	path, err := writeTrace(env.benchDir, traceFile{Workload: o.workload, Seed: o.seed, Spans: spans})
	if err != nil {
		return nil, err
	}
	res.notef("svc_fed: %d spans written to %s", len(spans), path)
	return res, nil
}
