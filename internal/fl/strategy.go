package fl

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"aergia/internal/comm"
	"aergia/internal/nn"
	"aergia/internal/tensor"
)

// Awareness grades how a strategy handles a heterogeneity dimension,
// mirroring the paper's Table 1 ("-", "+", "++").
type Awareness int

// Awareness levels.
const (
	AwarenessNone Awareness = iota
	AwarenessPartial
	AwarenessFull
)

// String implements fmt.Stringer.
func (a Awareness) String() string {
	switch a {
	case AwarenessPartial:
		return "+"
	case AwarenessFull:
		return "++"
	default:
		return "-"
	}
}

// Caps summarizes a strategy's qualitative capabilities (Table 1).
type Caps struct {
	DataHeterogeneity     Awareness
	ResourceHeterogeneity Awareness
	MinimizesTrainingTime bool
}

// Strategy customizes the federator's behaviour for one FL algorithm.
type Strategy interface {
	// Name identifies the strategy in results and tables.
	Name() string
	// Caps reports the qualitative capabilities (Table 1).
	Caps() Caps
	// Select picks the participants of round r.
	Select(r int, clients []ClientInfo, rng *tensor.RNG) []comm.NodeID
	// LocalMu is the FedProx proximal coefficient sent to clients.
	LocalMu() float64
	// Aggregate folds the round's updates into the previous global
	// weights. prev is the round's dispatched global (TrainPayload.Global)
	// and an update's vectors are leased (decodeUpdate): both are read,
	// never written.
	Aggregate(prev nn.Weights, updates []Update) (nn.Weights, error)
	// Deadline is the round cutoff after which late updates are dropped;
	// zero waits for every update.
	Deadline(r int) time.Duration
	// Offloading reports whether Aergia's profile/schedule/offload
	// protocol runs during rounds.
	Offloading() bool
}

// ErrNoUpdates is returned when aggregation receives nothing to aggregate.
var ErrNoUpdates = errors.New("fl: no updates to aggregate")

// clientIDs lists the clients' IDs in order.
func clientIDs(clients []ClientInfo) []comm.NodeID {
	ids := make([]comm.NodeID, len(clients))
	for i, c := range clients {
		ids[i] = c.ID
	}
	return ids
}

// selectRandom picks min(k, len(clients)) distinct clients uniformly;
// k <= 0 selects everyone.
func selectRandom(k int, clients []ClientInfo, rng *tensor.RNG) []comm.NodeID {
	ids := clientIDs(clients)
	if k <= 0 || k >= len(ids) {
		return ids
	}
	perm := rng.Perm(len(ids))
	out := make([]comm.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = ids[perm[i]]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// weightedAverage is the FedAvg rule: w = Σ (n_k/Σn) w_k.
func weightedAverage(updates []Update) (nn.Weights, error) {
	return weightedAverageInto(nn.Weights{}, updates)
}

// weightedAverageInto is weightedAverage accumulated in dst's vectors, each
// resliced to its section's length when its capacity allows and replaced by
// a fresh one when not. They are cleared first: the sum starts from the +0
// a fresh vector holds, so the result is weightedAverage's bit for bit.
func weightedAverageInto(dst nn.Weights, updates []Update) (nn.Weights, error) {
	if len(updates) == 0 {
		return nn.Weights{}, ErrNoUpdates
	}
	total := 0
	for _, u := range updates {
		if u.NumSamples <= 0 {
			return nn.Weights{}, fmt.Errorf("fl: client %d update with %d samples", u.Client, u.NumSamples)
		}
		total += u.NumSamples
	}
	first := updates[0].Weights
	acc := nn.Weights{
		Feature:    zeroed(dst.Feature, len(first.Feature)),
		Classifier: zeroed(dst.Classifier, len(first.Classifier)),
	}
	for _, u := range updates {
		if err := acc.Axpy(float64(u.NumSamples)/float64(total), u.Weights); err != nil {
			return nn.Weights{}, fmt.Errorf("fl: aggregate client %d: %w", u.Client, err)
		}
	}
	return acc, nil
}

// zeroed returns s resliced to n values, all +0, or a fresh vector when s
// is too short.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// FedAvg is the classical synchronous weighted-average baseline
// (McMahan et al.).
type FedAvg struct {
	// Participants is the per-round selection size; 0 selects all clients.
	Participants int
}

var _ Strategy = (*FedAvg)(nil)

// NewFedAvg returns a FedAvg strategy.
func NewFedAvg(participants int) *FedAvg { return &FedAvg{Participants: participants} }

// Name implements Strategy.
func (s *FedAvg) Name() string { return "fedavg" }

// Caps implements Strategy.
func (s *FedAvg) Caps() Caps { return Caps{} }

// Select implements Strategy.
func (s *FedAvg) Select(_ int, clients []ClientInfo, rng *tensor.RNG) []comm.NodeID {
	return selectRandom(s.Participants, clients, rng)
}

// LocalMu implements Strategy.
func (s *FedAvg) LocalMu() float64 { return 0 }

// Aggregate implements Strategy.
func (s *FedAvg) Aggregate(_ nn.Weights, updates []Update) (nn.Weights, error) {
	return weightedAverage(updates)
}

// Deadline implements Strategy.
func (s *FedAvg) Deadline(int) time.Duration { return 0 }

// Offloading implements Strategy.
func (s *FedAvg) Offloading() bool { return false }

// FedProx adds a proximal term to local objectives to limit client drift on
// non-IID data (Li et al.). Aggregation is FedAvg's.
type FedProx struct {
	Participants int
	// Mu is the proximal coefficient (µ in the paper).
	Mu float64
}

var _ Strategy = (*FedProx)(nil)

// NewFedProx returns a FedProx strategy with coefficient mu.
func NewFedProx(participants int, mu float64) *FedProx {
	return &FedProx{Participants: participants, Mu: mu}
}

// Name implements Strategy.
func (s *FedProx) Name() string { return "fedprox" }

// Caps implements Strategy.
func (s *FedProx) Caps() Caps { return Caps{DataHeterogeneity: AwarenessPartial} }

// Select implements Strategy.
func (s *FedProx) Select(_ int, clients []ClientInfo, rng *tensor.RNG) []comm.NodeID {
	return selectRandom(s.Participants, clients, rng)
}

// LocalMu implements Strategy.
func (s *FedProx) LocalMu() float64 { return s.Mu }

// Aggregate implements Strategy.
func (s *FedProx) Aggregate(_ nn.Weights, updates []Update) (nn.Weights, error) {
	return weightedAverage(updates)
}

// Deadline implements Strategy.
func (s *FedProx) Deadline(int) time.Duration { return 0 }

// Offloading implements Strategy.
func (s *FedProx) Offloading() bool { return false }

// FedNova normalizes client contributions by their local step counts so
// clients that perform more updates do not dominate the global model
// (Wang et al.): w ← w_prev + τ_eff · Σ p_k (w_k − w_prev)/τ_k.
type FedNova struct {
	Participants int
}

var _ Strategy = (*FedNova)(nil)

// NewFedNova returns a FedNova strategy.
func NewFedNova(participants int) *FedNova { return &FedNova{Participants: participants} }

// Name implements Strategy.
func (s *FedNova) Name() string { return "fednova" }

// Caps implements Strategy.
func (s *FedNova) Caps() Caps { return Caps{DataHeterogeneity: AwarenessPartial} }

// Select implements Strategy.
func (s *FedNova) Select(_ int, clients []ClientInfo, rng *tensor.RNG) []comm.NodeID {
	return selectRandom(s.Participants, clients, rng)
}

// LocalMu implements Strategy.
func (s *FedNova) LocalMu() float64 { return 0 }

// Aggregate implements Strategy.
func (s *FedNova) Aggregate(prev nn.Weights, updates []Update) (nn.Weights, error) {
	if len(updates) == 0 {
		return nn.Weights{}, ErrNoUpdates
	}
	total := 0
	for _, u := range updates {
		if u.NumSamples <= 0 || u.Steps <= 0 {
			return nn.Weights{}, fmt.Errorf("fl: client %d update n=%d tau=%d",
				u.Client, u.NumSamples, u.Steps)
		}
		total += u.NumSamples
	}
	var tauEff float64
	for _, u := range updates {
		tauEff += float64(u.NumSamples) / float64(total) * float64(u.Steps)
	}
	// normalized = Σ p_k (w_k - prev)/τ_k
	normalized := prev.ZeroLike()
	for _, u := range updates {
		pk := float64(u.NumSamples) / float64(total)
		delta := u.Weights.Clone()
		if err := delta.Axpy(-1, prev); err != nil {
			return nn.Weights{}, fmt.Errorf("fl: fednova delta client %d: %w", u.Client, err)
		}
		if err := normalized.Axpy(pk/float64(u.Steps), delta); err != nil {
			return nn.Weights{}, fmt.Errorf("fl: fednova fold client %d: %w", u.Client, err)
		}
	}
	out := prev.Clone()
	if err := out.Axpy(tauEff, normalized); err != nil {
		return nn.Weights{}, err
	}
	return out, nil
}

// Deadline implements Strategy.
func (s *FedNova) Deadline(int) time.Duration { return 0 }

// Offloading implements Strategy.
func (s *FedNova) Offloading() bool { return false }

// TiFL groups clients into tiers by (offline-profiled) speed and selects
// each round's participants from a single tier, reducing intra-round
// variance (Chai et al.). Aggregation is FedAvg's.
type TiFL struct {
	Participants int
	// Tiers is the number of speed tiers (the paper's default is 3:
	// weak / medium / strong).
	Tiers int
}

var _ Strategy = (*TiFL)(nil)

// NewTiFL returns a TiFL strategy with the given tier count.
func NewTiFL(participants, tiers int) *TiFL {
	if tiers <= 0 {
		tiers = 3
	}
	return &TiFL{Participants: participants, Tiers: tiers}
}

// Name implements Strategy.
func (s *TiFL) Name() string { return "tifl" }

// Caps implements Strategy.
func (s *TiFL) Caps() Caps {
	return Caps{
		DataHeterogeneity:     AwarenessPartial,
		ResourceHeterogeneity: AwarenessPartial,
		MinimizesTrainingTime: true,
	}
}

// tiersOf splits clients into speed tiers, slowest tier first.
func (s *TiFL) tiersOf(clients []ClientInfo) [][]ClientInfo {
	sorted := make([]ClientInfo, len(clients))
	copy(sorted, clients)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Speed != sorted[j].Speed {
			return sorted[i].Speed < sorted[j].Speed
		}
		return sorted[i].ID < sorted[j].ID
	})
	n := s.Tiers
	if n > len(sorted) {
		n = len(sorted)
	}
	tiers := make([][]ClientInfo, n)
	per := (len(sorted) + n - 1) / n
	for i, c := range sorted {
		t := i / per
		if t >= n {
			t = n - 1
		}
		tiers[t] = append(tiers[t], c)
	}
	return tiers
}

// Select implements Strategy: round r draws from tier r mod Tiers.
func (s *TiFL) Select(r int, clients []ClientInfo, rng *tensor.RNG) []comm.NodeID {
	tiers := s.tiersOf(clients)
	if len(tiers) == 0 {
		return nil
	}
	tier := tiers[r%len(tiers)]
	return selectRandom(s.Participants, tier, rng)
}

// LocalMu implements Strategy.
func (s *TiFL) LocalMu() float64 { return 0 }

// Aggregate implements Strategy.
func (s *TiFL) Aggregate(_ nn.Weights, updates []Update) (nn.Weights, error) {
	return weightedAverage(updates)
}

// Deadline implements Strategy.
func (s *TiFL) Deadline(int) time.Duration { return 0 }

// Offloading implements Strategy.
func (s *TiFL) Offloading() bool { return false }

// DeadlineFedAvg is the naive straggler mitigation evaluated in Figure 1:
// FedAvg with a fixed per-round deadline after which late updates are
// dropped.
type DeadlineFedAvg struct {
	Participants int
	// RoundDeadline is the cutoff; zero behaves exactly like FedAvg.
	RoundDeadline time.Duration
}

var _ Strategy = (*DeadlineFedAvg)(nil)

// NewDeadlineFedAvg returns a deadline-based FedAvg.
func NewDeadlineFedAvg(participants int, deadline time.Duration) *DeadlineFedAvg {
	return &DeadlineFedAvg{Participants: participants, RoundDeadline: deadline}
}

// Name implements Strategy.
func (s *DeadlineFedAvg) Name() string {
	if s.RoundDeadline == 0 {
		return "fedavg-deadline(inf)"
	}
	return fmt.Sprintf("fedavg-deadline(%s)", s.RoundDeadline)
}

// Caps implements Strategy.
func (s *DeadlineFedAvg) Caps() Caps {
	return Caps{ResourceHeterogeneity: AwarenessPartial, MinimizesTrainingTime: true}
}

// Select implements Strategy.
func (s *DeadlineFedAvg) Select(_ int, clients []ClientInfo, rng *tensor.RNG) []comm.NodeID {
	return selectRandom(s.Participants, clients, rng)
}

// LocalMu implements Strategy.
func (s *DeadlineFedAvg) LocalMu() float64 { return 0 }

// Aggregate implements Strategy.
func (s *DeadlineFedAvg) Aggregate(_ nn.Weights, updates []Update) (nn.Weights, error) {
	return weightedAverage(updates)
}

// Deadline implements Strategy.
func (s *DeadlineFedAvg) Deadline(int) time.Duration { return s.RoundDeadline }

// Offloading implements Strategy.
func (s *DeadlineFedAvg) Offloading() bool { return false }

// Aergia is the paper's contribution: clients profile their four training
// phases online; the federator matches stragglers with strong,
// data-compatible clients (Algorithm 1, with similarity factor f and the
// enclave's EMD matrix); weak clients freeze their feature layers and
// offload their training to the matched strong client; the federator
// recombines both parts before FedAvg aggregation.
type Aergia struct {
	Participants int
	// SimilarityFactor is f in Algorithm 1; 0 ignores dataset similarity.
	SimilarityFactor float64
}

var _ Strategy = (*Aergia)(nil)

// NewAergia returns the Aergia strategy with the given similarity factor.
func NewAergia(participants int, similarityFactor float64) *Aergia {
	return &Aergia{Participants: participants, SimilarityFactor: similarityFactor}
}

// Name implements Strategy.
func (s *Aergia) Name() string { return "aergia" }

// Caps implements Strategy.
func (s *Aergia) Caps() Caps {
	return Caps{
		DataHeterogeneity:     AwarenessFull,
		ResourceHeterogeneity: AwarenessFull,
		MinimizesTrainingTime: true,
	}
}

// Select implements Strategy (same client selection as FedAvg, §3.3).
func (s *Aergia) Select(_ int, clients []ClientInfo, rng *tensor.RNG) []comm.NodeID {
	return selectRandom(s.Participants, clients, rng)
}

// LocalMu implements Strategy.
func (s *Aergia) LocalMu() float64 { return 0 }

// Aggregate implements Strategy (classical FL averaging, §3.3).
func (s *Aergia) Aggregate(_ nn.Weights, updates []Update) (nn.Weights, error) {
	return weightedAverage(updates)
}

// Deadline implements Strategy.
func (s *Aergia) Deadline(int) time.Duration { return 0 }

// Offloading implements Strategy.
func (s *Aergia) Offloading() bool { return true }

// Table1 renders the paper's Table 1 feature matrix for the given
// strategies.
func Table1(strategies []Strategy) []string {
	rows := make([]string, 0, len(strategies)+1)
	rows = append(rows, fmt.Sprintf("%-24s %-8s %-8s %s",
		"strategy", "data", "resource", "min-time"))
	for _, s := range strategies {
		c := s.Caps()
		minTime := "✗"
		if c.MinimizesTrainingTime {
			minTime = "✓"
		}
		rows = append(rows, fmt.Sprintf("%-24s %-8s %-8s %s",
			s.Name(), c.DataHeterogeneity, c.ResourceHeterogeneity, minTime))
	}
	return rows
}
