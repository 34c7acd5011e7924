package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aergia/internal/fl"
	"aergia/internal/obs"
	"aergia/internal/trace"
)

// sinkHashes is what one fully observed experiment leaves behind: the job
// stream's events, the trace log's timeline, the span log's JSONL and the
// record bytes, each hashed.
type sinkHashes struct {
	events, trace, spans, record string
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// observe runs one experiment with all three sinks set and hashes each.
func observe(t *testing.T, name string, opt Options) sinkHashes {
	t.Helper()
	opt.Trace = trace.NewLog()
	opt.Spans = obs.NewSpanLog()
	opt.Events = obs.NewRoundStream()
	rec, err := Run(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	line, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	events, err := json.Marshal(opt.Events.Events())
	if err != nil {
		t.Fatal(err)
	}
	var timeline []byte
	for _, e := range opt.Trace.Events() {
		timeline = fmt.Appendf(timeline, "%d %d %d %d %s\n", e.Time, e.Node, e.Round, e.Kind, e.Detail)
	}
	var spans jsonlBuffer
	if err := opt.Spans.WriteJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	return sinkHashes{
		events: hashOf(events),
		trace:  hashOf(timeline),
		spans:  hashOf(spans),
		record: hashOf(line),
	}
}

type jsonlBuffer []byte

func (b *jsonlBuffer) Write(p []byte) (int, error) { *b = append(*b, p...); return len(p), nil }

// TestBatchKeepsSinksInSerialOrder pins what an experiment's observers see
// when its runs execute side by side: the job stream's events, the trace
// timeline, the span JSONL and the record are the serial loop's, at any
// width. The hashes were taken at the commit before runs were batched,
// where every experiment ran its FL runs one after another into the shared
// sinks. fig9 is a plain batch, fig1b a baseline phase before its batch,
// async a batch that ends in fl.RunAsync.
//
// One event differs from that commit, on purpose: fig1b's last event (the
// 0.4x run's round 4) names client 2 as its straggler, where the shared
// stream named client 0. The 0.6x run's cut stragglers delivered round-4
// updates after its last round closed; the shared stream filed those spans
// under round 4, and the next run's round 4 read them as its own critical
// path. A run's private stream sees its own spans only.
func TestBatchKeepsSinksInSerialOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		want sinkHashes
	}{
		{"fig9", sinkHashes{events: "b14296e20bb71672", trace: "b4c9dc745ba6912c", spans: "6a4c55fbd650c747", record: "73cf2654ae61c405"}},
		{"fig1b", sinkHashes{events: "2504f5be39c5e4a5", trace: "d2f1fc0c3c982b75", spans: "bfa47795d5724115", record: "892bfe944bdc295d"}},
		{"async", sinkHashes{events: "912d83a2f64ff9f3", trace: "b7649be50d7bbf42", spans: "fabe82b49c89b4db", record: "0d1f9ccf8370728c"}},
	} {
		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got := observe(t, tc.name, quick)
			runtime.GOMAXPROCS(prev)
			if got != tc.want {
				t.Errorf("%s at GOMAXPROCS %d: sinks hash to %+v, want %+v", tc.name, procs, got, tc.want)
			}
		}
	}
}

// TestBatchRecoversAPanickingRun: a run that panics on one of the batch's
// goroutines fails the batch with an error that names it, and the runs
// beside it complete.
func TestBatchRecoversAPanickingRun(t *testing.T) {
	var started sync.WaitGroup
	started.Add(3)
	var completed [3]atomic.Bool
	runs := make([]func(Options) error, 3)
	for i := range runs {
		runs[i] = func(Options) error {
			started.Done()
			started.Wait() // all three are in flight before run 1 panics
			if i == 1 {
				panic("collector bug")
			}
			completed[i].Store(true)
			return nil
		}
	}
	err := runBatch(3, quick, runs)
	if err == nil || !strings.Contains(err.Error(), "run 1 panicked: collector bug") {
		t.Fatalf("batch error %v, want run 1's panic", err)
	}
	if !completed[0].Load() || !completed[2].Load() {
		t.Fatalf("runs 0 and 2 completed: %v %v, want both", completed[0].Load(), completed[2].Load())
	}
}

// TestBatchReturnsTheLowestFailure: the batch fails with the error the
// serial loop would have stopped at, whatever finished first, and at width
// 1 no run starts after it.
func TestBatchReturnsTheLowestFailure(t *testing.T) {
	for _, width := range []int{1, 3} {
		var started sync.WaitGroup
		started.Add(width)
		var ran [3]atomic.Bool
		runs := make([]func(Options) error, 3)
		for i := range runs {
			runs[i] = func(Options) error {
				ran[i].Store(true)
				if width > 1 {
					started.Done()
					started.Wait()
				}
				switch i {
				case 1:
					time.Sleep(10 * time.Millisecond) // run 2 fails first
					return errors.New("one")
				case 2:
					return errors.New("two")
				}
				return nil
			}
		}
		if err := runBatch(width, quick, runs); err == nil || err.Error() != "one" {
			t.Fatalf("width %d: batch error %v, want run 1's", width, err)
		}
		if width == 1 && ran[2].Load() {
			t.Fatal("width 1 started run 2 after run 1 failed")
		}
	}
}

// TestBatchWidth: on sim a batch runs GOMAXPROCS runs at once; on tcp,
// whose timings are wall-clock, one at a time.
func TestBatchWidth(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var (
		mu             sync.Mutex
		inFlight, peak int
		started        sync.WaitGroup
	)
	started.Add(4)
	run := func(o Options) error {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		if o.Transport != fl.TransportTCP {
			started.Done()
			started.Wait() // deadlocks unless all four run at once
		}
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	}
	if err := runAll(quick, run, run, run, run); err != nil {
		t.Fatal(err)
	}
	if peak != 4 {
		t.Fatalf("sim batch ran %d runs at once, want GOMAXPROCS = 4", peak)
	}
	peak = 0
	if err := runAll(Options{Quick: true, Transport: fl.TransportTCP}, run, run, run, run); err != nil {
		t.Fatal(err)
	}
	if peak != 1 {
		t.Fatalf("tcp batch ran %d runs at once, want 1", peak)
	}
}
