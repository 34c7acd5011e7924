// Package sched implements Aergia's centralized scheduling: Algorithm 1
// (matching weak clients to strong clients under a data-similarity-aware
// cost) and Algorithm 2 (choosing the optimal offloading point between two
// clients). The scheduler is a variant of greedy longest-processing-time-
// first (LPT): it targets the mean compute time of the round, classifies
// clients into senders (stragglers) and receivers (strong clients), and
// greedily pairs them starting with the weakest sender.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"aergia/internal/comm"
	"aergia/internal/similarity"
)

// Perf captures one client's profiled per-batch costs and remaining work,
// the inputs of Algorithm 1.
type Perf struct {
	ID comm.NodeID
	// T123 is the per-update duration of the always-local phases
	// (ff + fc + bc).
	T123 time.Duration
	// T4 is the per-update duration of the offloadable bf phase.
	T4 time.Duration
	// Remaining is ru_j: the client's remaining local updates this round.
	Remaining int
}

// Full returns the per-update duration of a complete cycle.
func (p Perf) Full() time.Duration { return p.T123 + p.T4 }

// Expected returns the projected remaining training time.
func (p Perf) Expected() time.Duration {
	return time.Duration(p.Remaining) * p.Full()
}

// Pair is one freeze/offload decision: the weak client trains
// OffloadAfter full updates, then freezes its feature layers, sends its
// model to the strong client, and finishes its remaining updates with the
// lighter frozen procedure; the strong client trains the offloaded feature
// section for OffloadedUpdates batches on its own data.
type Pair struct {
	Weak             comm.NodeID   `json:"weak"`
	Strong           comm.NodeID   `json:"strong"`
	OffloadAfter     int           `json:"offloadAfter"`
	OffloadedUpdates int           `json:"offloadedUpdates"`
	Estimate         time.Duration `json:"estimateNanos"`
}

// Schedule is the output of Algorithm 1 for one round.
type Schedule struct {
	Round int    `json:"round"`
	Pairs []Pair `json:"pairs"`
	// MeanComputeTime is the target the round should converge to (mct).
	MeanComputeTime time.Duration `json:"meanComputeTimeNanos"`
}

// ErrNoClients is returned when Compute receives an empty performance set.
var ErrNoClients = errors.New("sched: no client performance reports")

func errInvalidPerf(p Perf) error {
	return fmt.Errorf("sched: invalid perf for client %d: %+v", p.ID, p)
}

// sortSendingDesc orders stragglers from the longest expected time down
// (ties broken by ID for determinism).
func sortSendingDesc(sending []Perf) {
	sort.Slice(sending, func(i, j int) bool {
		if sending[i].Expected() != sending[j].Expected() {
			return sending[i].Expected() > sending[j].Expected()
		}
		return sending[i].ID < sending[j].ID
	})
}

// sortReceivingAsc orders receivers by headroom: fastest-expected first.
func sortReceivingAsc(receiving []Perf) {
	sort.Slice(receiving, func(i, j int) bool {
		if receiving[i].Expected() != receiving[j].Expected() {
			return receiving[i].Expected() < receiving[j].Expected()
		}
		return receiving[i].ID < receiving[j].ID
	})
}

// Config tunes Algorithm 1.
type Config struct {
	// SimilarityFactor is f in Algorithm 1 line 24: 0 ignores dataset
	// similarity; larger values weigh it more heavily.
	SimilarityFactor float64
	// Similarity is the pairwise EMD matrix from the enclave, indexed by
	// client position in the perfs slice order of IDs. Nil disables the
	// similarity term regardless of the factor.
	Similarity similarity.Matrix
	// Index maps a client ID to its row in the similarity matrix. Nil
	// means the matrix is indexed by int(ID) directly.
	Index map[comm.NodeID]int
}

func (c Config) simBetween(a, b comm.NodeID) float64 {
	if c.Similarity == nil {
		return 0
	}
	ai, bi := int(a), int(b)
	if c.Index != nil {
		var ok bool
		if ai, ok = c.Index[a]; !ok {
			return 0
		}
		if bi, ok = c.Index[b]; !ok {
			return 0
		}
	}
	if ai < 0 || bi < 0 || ai >= c.Similarity.Size() || bi >= c.Similarity.Size() {
		return 0
	}
	return c.Similarity.At(ai, bi)
}

// Compute runs Algorithm 1 over the profiled clients and returns the
// freeze/offload schedule for the round.
func Compute(round int, perfs []Perf, cfg Config) (Schedule, error) {
	if len(perfs) == 0 {
		return Schedule{}, ErrNoClients
	}
	for _, p := range perfs {
		if p.Remaining < 0 || p.T123 < 0 || p.T4 < 0 {
			return Schedule{}, errInvalidPerf(p)
		}
	}
	// Line 12: mct = mean of ru_m * (t_{m,123} + t_{m,4}).
	var total time.Duration
	for _, p := range perfs {
		total += p.Expected()
	}
	mct := total / time.Duration(len(perfs))

	// Lines 13–14: split into sending (stragglers) and receiving clients.
	var sending, receiving []Perf
	for _, p := range perfs {
		if p.Expected() > mct {
			sending = append(sending, p)
		} else {
			receiving = append(receiving, p)
		}
	}
	// Lines 15–16: the paper matches "starting by the weakest ones because
	// the global training time in a round is determined by the weakest
	// client" — iterate senders from the longest expected time down, and
	// consider the receivers with the most headroom first.
	sortSendingDesc(sending)
	sortReceivingAsc(receiving)

	sched := Schedule{Round: round, MeanComputeTime: mct}
	for _, weak := range sending {
		if len(receiving) == 0 {
			break // Line 31–32.
		}
		bestIdx := -1
		var bestPair Pair
		bestCost := math.Inf(1)
		for i, strong := range receiving {
			ct, d := OffloadPoint(weak, strong)
			if d <= 0 {
				continue
			}
			// Line 24: cost = ct * (1 + log(S_{c,k} * f + 1)).
			s := cfg.simBetween(weak.ID, strong.ID)
			cost := float64(ct) * (1 + math.Log(s*cfg.SimilarityFactor+1))
			if cost < bestCost {
				bestCost = cost
				bestIdx = i
				bestPair = Pair{
					Weak:             weak.ID,
					Strong:           strong.ID,
					OffloadAfter:     d,
					OffloadedUpdates: weak.Remaining - d,
					Estimate:         ct,
				}
			}
		}
		if bestIdx < 0 {
			continue
		}
		// Only offload when it actually helps: the pair estimate must beat
		// the weak client training alone.
		if bestPair.Estimate >= weak.Expected() {
			continue
		}
		sched.Pairs = append(sched.Pairs, bestPair)
		// Line 29: a strong client can be used once per round.
		receiving = append(receiving[:bestIdx], receiving[bestIdx+1:]...)
	}
	return sched, nil
}

// OffloadPoint is Algorithm 2: it chooses the number of full updates d the
// weak client executes before freezing and offloading, minimizing the
// pair's completion time estimate.
//
// The estimate reconciles the paper's pseudocode with the execution
// semantics of §4.1/Figure 5: after d full local updates the weak client
// finishes its remaining (ra-d) updates with the frozen (bf-free)
// procedure, while the strong client first completes its own rb updates
// and then trains the offloaded feature section for (ra-d) updates — the
// per-update cost of that offloaded work is the strong client's bf-phase
// time x_b, exactly the t_{k,4} Algorithm 1 passes to calc_op. The pair
// estimate is the slower of the two chains:
//
//	ct(d) = max( d*t_a + (ra-d)*t_{a,123},  rb*t_b + (ra-d)*x_b )
//
// The weak chain increases with d and the strong chain decreases, so ct is
// unimodal; like the paper's loop we scan d upward and stop at the first
// increase.
func OffloadPoint(weak, strong Perf) (time.Duration, int) {
	ra, rb := weak.Remaining, strong.Remaining
	if ra <= 0 || rb < 0 {
		return 0, 0
	}
	ta := weak.Full()
	tb := strong.Full()
	xb := strong.T4
	best := time.Duration(math.MaxInt64)
	bestD := 0
	for d := 1; d <= ra; d++ {
		weakChain := time.Duration(d)*ta + time.Duration(ra-d)*weak.T123
		strongChain := time.Duration(rb)*tb + time.Duration(ra-d)*xb
		ct := weakChain
		if strongChain > ct {
			ct = strongChain
		}
		if ct > best {
			return best, bestD
		}
		best = ct
		bestD = d
	}
	return best, bestD
}
