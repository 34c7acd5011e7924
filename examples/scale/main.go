// Scale: the 100k-client proof of the scale-out subsystem (internal/hier,
// DESIGN.md §11). One process simulates clusters of 10k, ~32k, and 100k
// clients behind a fixed 512-client per-round cohort and 32 edge
// aggregation tiers, and prints one parseable line per cluster size with
// the wall-clock and heap cost of the run:
//
//	scale: clients=100000 tiers=32 cohort=512 rounds=2 wall_ms=... heap_mb=... hydrated=... accuracy=...
//
// Because unsampled clients stay lazy profiles (no model, no optimizer, no
// data shard) and the root federator aggregates 32 edge deltas instead of
// N client updates, both curves must grow sublinearly in N: the run exits
// non-zero if the 10x client growth from the first to the last point costs
// more than 6x in either wall-clock or heap, so CI uses it as the
// clients-vs-wall-clock / clients-vs-RSS smoke (BENCH_scale.json). The two
// ratios alone would let the per-cohort constant grow unnoticed, so the
// 100 000-client point (at a cohort of 512 or less) must also fit
// maxHeapMBAt100k of live heap after the run — a count of bytes, not a
// timing — at any -rounds: a sampled client hands its shard back with its
// update and its shell then drops it, so a long run grows the heap only by
// the shell and transport entries of each client ever sampled, about
// 0.33 kB (CI also runs -clients 100000 -rounds 32).
//
// Run with: go run ./examples/scale [-clients 10000,31623,100000] [-cohort 512] [-tiers 32] [-rounds 2]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aergia/internal/dataset"
	"aergia/internal/fl"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/tensor"
)

func main() {
	clientsList := flag.String("clients", "10000,31623,100000", "comma-separated cluster sizes")
	cohort := flag.Int("cohort", 512, "per-round sampled cohort size (fixed across cluster sizes)")
	tiers := flag.Int("tiers", 32, "edge aggregation tiers")
	rounds := flag.Int("rounds", 2, "global communication rounds")
	flag.Parse()
	if err := run(*clientsList, *cohort, *tiers, *rounds); err != nil {
		log.Fatal(err)
	}
}

// maxHeapMBAt100k bounds the post-GC heap of the 100 000-client point at the
// default cohort, however many rounds run. A client is hydrated only from a
// dispatch to its update, and holds a network and its shard only for that
// round (DESIGN.md §11); an edge drops its cohort's updates once the
// aggregate is sent, so what is live after the run is the edges' cohort
// lists (8 B a client) and, for each client the run touched, its shell —
// holding the client's continuation, when it has one — and its stack and
// network entries: 2.3 MB after 2 rounds, 6.9 MB after 32. While a sampled
// client stayed hydrated between rounds it was 3.1 and 18.4 MB, and 22 and
// 33 MB while every client was registered and shelled up front. While
// every hydrated client kept its shard it was 40 MB after 2 rounds and
// 268 MB after 32; while the edges' update
// buffers still referenced every snapshot of the last round (605 × 52.7 kB),
// 75 MB after 2; and 199 MB with 1 018 networks resident on top. Any of those
// coming back fails the bound.
const maxHeapMBAt100k = 60

// point is one (cluster size) measurement of the two curves.
type point struct {
	clients  int
	wall     time.Duration
	heapMB   float64
	hydrated int
}

func run(clientsList string, cohort, tiers, rounds int) error {
	var sizes []int
	for _, f := range strings.Split(clientsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return fmt.Errorf("bad -clients entry %q", f)
		}
		sizes = append(sizes, n)
	}
	if cohort < 1 || tiers < 1 || rounds < 1 {
		return fmt.Errorf("need positive -cohort, -tiers, -rounds")
	}
	var points []point
	for _, n := range sizes {
		p, err := runOne(n, cohort, tiers, rounds)
		if err != nil {
			return fmt.Errorf("clients=%d: %w", n, err)
		}
		points = append(points, p)
	}
	for _, p := range points {
		if p.clients == 100000 && cohort <= 512 && p.heapMB > maxHeapMBAt100k {
			return fmt.Errorf("clients=%d holds %.1f MB of heap after the run (limit %d MB) — hydrated clients are keeping what a round should hand back",
				p.clients, p.heapMB, maxHeapMBAt100k)
		}
	}
	if len(points) < 2 {
		return nil
	}
	// The proof: 10x more clients must not cost anywhere near 10x. The
	// cohort is fixed, so training work is constant. The O(N) terms are the
	// edges' cohort lists (8 B a client) and the sampler and assignment
	// hashes over them; a client costs a shell and transport entries only
	// once it is addressed.
	first, last := points[0], points[len(points)-1]
	growth := float64(last.clients) / float64(first.clients)
	limit := 0.6 * growth
	if wallRatio := float64(last.wall) / float64(first.wall); wallRatio > limit {
		return fmt.Errorf("wall-clock grew %.2fx over a %.0fx client growth (limit %.1fx) — round cost is not sublinear",
			wallRatio, growth, limit)
	}
	if heapRatio := last.heapMB / first.heapMB; heapRatio > limit {
		return fmt.Errorf("heap grew %.2fx over a %.0fx client growth (limit %.1fx) — memory is not cohort-bound",
			heapRatio, growth, limit)
	}
	fmt.Printf("scale: sublinear OK (%.0fx clients -> %.2fx wall, %.2fx heap)\n",
		growth, float64(last.wall)/float64(first.wall), last.heapMB/first.heapMB)
	return nil
}

func runOne(n, cohort, tiers, rounds int) (point, error) {
	be, err := tensor.NewBackend("serial32", 0)
	if err != nil {
		return point{}, err
	}
	top := fl.Topology{
		Strategy:    fl.NewFedAvg(0),
		Arch:        nn.ArchMNISTSmall,
		Dataset:     dataset.MNIST,
		SmallImages: true,
		Clients:     n,
		Rounds:      rounds,
		LocalEpochs: 1,
		BatchSize:   4,
		// 8 local samples per client, generated lazily: only hydrated
		// clients ever materialize their shard.
		TrainSamples: 8 * n,
		TestSamples:  256,
		EvalEvery:    rounds,
		Seed:         7,
		Backend:      be,
		Hier: hier.Options{
			Sample: float64(cohort) / float64(n),
			Tiers:  tiers,
		},
	}
	cl, err := top.Build()
	if err != nil {
		return point{}, err
	}
	tr, err := fl.NewTransport(fl.TransportSim, nil)
	if err != nil {
		return point{}, err
	}
	defer tr.Close()
	start := time.Now()
	res, err := (&fl.Deployment{Cluster: cl, Transport: tr}).Run()
	if err != nil {
		return point{}, err
	}
	wall := time.Since(start)
	hydrated := 0
	for _, s := range cl.Hier.Shells {
		if s.Hydrations() > 0 {
			hydrated++
		}
	}
	// Heap with the whole cluster still live: the honest "per-process RSS"
	// of holding N simulated clients, dominated by the hydrated cohort.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	fmt.Printf("scale: clients=%d tiers=%d cohort=%d rounds=%d wall_ms=%d heap_mb=%.1f hydrated=%d accuracy=%.3f\n",
		n, tiers, cohort, rounds, wall.Milliseconds(), heapMB, hydrated, res.FinalAccuracy)
	return point{clients: n, wall: wall, heapMB: heapMB, hydrated: hydrated}, nil
}
