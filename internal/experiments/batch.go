package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"aergia/internal/fl"
	"aergia/internal/obs"
	"aergia/internal/trace"
)

// runAll executes an experiment's independent FL runs side by side, up to
// GOMAXPROCS at a time on the sim transport and one at a time on tcp, whose
// wall-clock timings concurrent runs would distort. Each run gets its own
// copy of opt with private sinks and writes into its own result slot; the
// caller post-processes the slots after the batch, in input order. What the
// sinks of opt receive is what the serial loop gave them (DESIGN.md §4):
// run k's events reach opt.Events once runs 0…k−1 have finished (the
// lowest unfinished run's are live), and the trace and span logs get each
// run's records appended in run order. The error is the lowest-index run's,
// as the serial loop would have stopped there; a run panicking is that
// run's error, and no run starts past a known failure.
func runAll(opt Options, runs ...func(Options) error) error {
	width := runtime.GOMAXPROCS(0)
	if opt.Transport == fl.TransportTCP {
		width = 1
	}
	return runBatch(width, opt, runs)
}

// runEach is runAll over one run per element of in, each returning its
// result, which lands at its element's index.
func runEach[In, Out any](opt Options, in []In, run func(Options, In) (Out, error)) ([]Out, error) {
	out := make([]Out, len(in))
	runs := make([]func(Options) error, len(in))
	for i, x := range in {
		runs[i] = func(o Options) (err error) {
			out[i], err = run(o, x)
			return err
		}
	}
	if err := runAll(opt, runs...); err != nil {
		return nil, err
	}
	return out, nil
}

// runBatch is runAll at an explicit width.
func runBatch(width int, opt Options, runs []func(Options) error) error {
	n := len(runs)
	if n == 0 {
		return nil
	}
	opts := make([]Options, n)
	for i := range opts {
		o := opt
		if opt.Trace != nil {
			o.Trace = trace.NewLog()
		}
		if opt.Spans != nil {
			o.Spans = obs.NewSpanLog()
		}
		if opt.Events != nil {
			o.Events = obs.NewRoundStream()
		}
		opts[i] = o
	}
	opts[0].Events.Forward(opt.Events)
	var (
		mu     sync.Mutex // guards everything below
		next   int        // the next run to start
		failed = n        // the lowest failed run, n while none has
		done   = make([]bool, n)
		head   int // the lowest unfinished run: its events are live
		errs   = make([]error, n)
	)
	var wg sync.WaitGroup
	for range min(width, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i, skip := next, next > failed
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				var err error
				if !skip {
					err = runOne(i, runs[i], opts[i])
				}
				mu.Lock()
				if err != nil {
					errs[i], failed = err, min(failed, i)
				}
				// Hand the job stream on past every finished run, unless
				// one of them failed.
				done[i] = true
				for head < n && done[head] {
					head++
					if head < n && head <= failed {
						opts[head].Events.Forward(opt.Events)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, o := range opts[:min(failed+1, n)] {
		for _, e := range o.Trace.Events() {
			opt.Trace.Record(e.Time, e.Node, e.Round, e.Kind, e.Detail)
		}
		for _, sp := range o.Spans.Spans() {
			opt.Spans.OnSpan(sp)
		}
	}
	if failed < n {
		return errs[failed]
	}
	return nil
}

// runOne calls run, turning a panic into the run's error: the goroutine is
// the batch's, so a recover further up the caller's stack (the runner's)
// would not see it, and the process would die with it.
func runOne(i int, run func(Options) error, opt Options) (err error) {
	defer func() {
		if p := recover(); p != nil {
			obs.FlightDefault.RecordPanic()
			err = fmt.Errorf("experiments: run %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return run(opt)
}
