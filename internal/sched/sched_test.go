package sched

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"aergia/internal/comm"
	"aergia/internal/similarity"
	"aergia/internal/tensor"
)

// perfFromSpeed builds a Perf for a client with the given relative speed,
// with a cost profile where bf dominates (60% of the cycle).
func perfFromSpeed(id comm.NodeID, speed float64, remaining int) Perf {
	base := float64(100 * time.Millisecond)
	return Perf{
		ID:        id,
		T123:      time.Duration(base * 0.4 / speed),
		T4:        time.Duration(base * 0.6 / speed),
		Remaining: remaining,
	}
}

func TestComputeEmpty(t *testing.T) {
	if _, err := Compute(0, nil, Config{}); !errors.Is(err, ErrNoClients) {
		t.Fatalf("err = %v, want ErrNoClients", err)
	}
}

func TestComputeInvalidPerf(t *testing.T) {
	bad := []Perf{{ID: 1, T123: -1, Remaining: 10}}
	if _, err := Compute(0, bad, Config{}); err == nil {
		t.Fatal("expected error for negative phase time")
	}
}

func TestComputeHomogeneousNoOffloading(t *testing.T) {
	perfs := []Perf{
		perfFromSpeed(0, 0.5, 40),
		perfFromSpeed(1, 0.5, 40),
		perfFromSpeed(2, 0.5, 40),
	}
	s, err := Compute(1, perfs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pairs) != 0 {
		t.Fatalf("homogeneous cluster produced pairs: %+v", s.Pairs)
	}
}

func TestComputePairsWeakWithStrong(t *testing.T) {
	perfs := []Perf{
		perfFromSpeed(0, 0.1, 40), // straggler
		perfFromSpeed(1, 1.0, 40), // strong
		perfFromSpeed(2, 0.9, 40), // strong
	}
	s, err := Compute(2, perfs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pairs) != 1 {
		t.Fatalf("pairs = %+v, want exactly one", s.Pairs)
	}
	p := s.Pairs[0]
	if p.Weak != 0 {
		t.Fatalf("weak = %d, want 0", p.Weak)
	}
	if p.Strong != 1 && p.Strong != 2 {
		t.Fatalf("strong = %d", p.Strong)
	}
	if p.OffloadAfter <= 0 || p.OffloadAfter >= 40 {
		t.Fatalf("offload point = %d", p.OffloadAfter)
	}
	if p.OffloadAfter+p.OffloadedUpdates != 40 {
		t.Fatalf("offloaded updates %d + after %d != 40", p.OffloadedUpdates, p.OffloadAfter)
	}
	// The pair estimate must beat the straggler's solo time.
	solo := perfs[0].Expected()
	if p.Estimate >= solo {
		t.Fatalf("estimate %v >= solo %v", p.Estimate, solo)
	}
}

func TestComputeStrongClientUsedOnce(t *testing.T) {
	perfs := []Perf{
		perfFromSpeed(0, 0.1, 40),
		perfFromSpeed(1, 0.12, 40),
		perfFromSpeed(2, 1.0, 40),
	}
	s, err := Compute(0, perfs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	strongUse := make(map[comm.NodeID]int)
	for _, p := range s.Pairs {
		strongUse[p.Strong]++
	}
	for id, n := range strongUse {
		if n > 1 {
			t.Fatalf("strong client %d used %d times", id, n)
		}
	}
}

func TestComputeSimilarityBiasesMatch(t *testing.T) {
	// Client 0 is the straggler. Clients 1 and 2 are equally strong, but
	// client 2's dataset is identical to 0's while client 1's is disjoint.
	perfs := []Perf{
		perfFromSpeed(0, 0.1, 40),
		perfFromSpeed(1, 1.0, 40),
		perfFromSpeed(2, 1.0, 40),
	}
	dists := [][]int{
		{30, 0, 0},
		{0, 30, 0},
		{30, 0, 0},
	}
	m, err := similarity.NewMatrix(dists)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compute(0, perfs, Config{SimilarityFactor: 1, Similarity: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pairs) != 1 || s.Pairs[0].Strong != 2 {
		t.Fatalf("pairs = %+v, want weak 0 matched to similar client 2", s.Pairs)
	}
	// With f = 0, both strong clients are equivalent: similarity ignored,
	// ties broken by iteration order. The chosen strong must simply be a
	// valid strong candidate and the estimate unchanged.
	s0, err := Compute(0, perfs, Config{SimilarityFactor: 0, Similarity: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(s0.Pairs) != 1 {
		t.Fatalf("pairs with f=0 = %+v", s0.Pairs)
	}
}

func TestComputeSimilarityIndexMapping(t *testing.T) {
	perfs := []Perf{
		perfFromSpeed(10, 0.1, 40),
		perfFromSpeed(20, 1.0, 40),
		perfFromSpeed(30, 1.0, 40),
	}
	dists := [][]int{
		{30, 0},
		{0, 30},
		{30, 0},
	}
	m, err := similarity.NewMatrix(dists)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[comm.NodeID]int{10: 0, 20: 1, 30: 2}
	s, err := Compute(0, perfs, Config{SimilarityFactor: 1, Similarity: m, Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pairs) != 1 || s.Pairs[0].Strong != 30 {
		t.Fatalf("pairs = %+v, want strong 30 via index mapping", s.Pairs)
	}
}

func TestOffloadPointUnimodalMinimum(t *testing.T) {
	weak := perfFromSpeed(0, 0.1, 50)
	strong := perfFromSpeed(1, 1.0, 50)
	ct, d := OffloadPoint(weak, strong)
	if d <= 0 || d > 50 {
		t.Fatalf("d = %d", d)
	}
	// Exhaustive check: the early-exit scan must find the global minimum.
	bestCT := time.Duration(1 << 62)
	for cand := 1; cand <= 50; cand++ {
		weakChain := time.Duration(cand)*weak.Full() +
			time.Duration(50-cand)*weak.T123
		strongChain := time.Duration(50)*strong.Full() +
			time.Duration(50-cand)*strong.T4
		cur := weakChain
		if strongChain > cur {
			cur = strongChain
		}
		if cur < bestCT {
			bestCT = cur
		}
	}
	if ct != bestCT {
		t.Fatalf("OffloadPoint ct = %v, exhaustive best = %v", ct, bestCT)
	}
}

func TestOffloadPointDegenerate(t *testing.T) {
	weak := perfFromSpeed(0, 0.1, 0)
	strong := perfFromSpeed(1, 1.0, 10)
	if _, d := OffloadPoint(weak, strong); d != 0 {
		t.Fatalf("d = %d for zero remaining", d)
	}
}

func TestComputeMCTMatchesDefinition(t *testing.T) {
	perfs := []Perf{
		{ID: 0, T123: 40 * time.Millisecond, T4: 60 * time.Millisecond, Remaining: 10},
		{ID: 1, T123: 20 * time.Millisecond, T4: 30 * time.Millisecond, Remaining: 10},
	}
	s, err := Compute(0, perfs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := (10*100*time.Millisecond + 10*50*time.Millisecond) / 2
	if s.MeanComputeTime != want {
		t.Fatalf("mct = %v, want %v", s.MeanComputeTime, want)
	}
}

func TestPairFor(t *testing.T) {
	s := Schedule{Pairs: []Pair{{Weak: 1, Strong: 2}}}
	if _, ok := s.PairFor(1); !ok {
		t.Fatal("PairFor(weak) not found")
	}
	if _, ok := s.PairFor(2); !ok {
		t.Fatal("PairFor(strong) not found")
	}
	if _, ok := s.PairFor(3); ok {
		t.Fatal("PairFor(uninvolved) found")
	}
}

// TestComputeReducesMakespan is the scheduler's headline property: on a
// heterogeneous cluster, the scheduled round completes faster than the
// unscheduled one for many random instances.
func TestComputeReducesMakespan(t *testing.T) {
	rng := tensor.NewRNG(77)
	improved := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(8)
		perfs := make([]Perf, n)
		var worst time.Duration
		for i := range perfs {
			speed := 0.1 + 0.9*rng.Float64()
			perfs[i] = perfFromSpeed(comm.NodeID(i), speed, 40)
			if e := perfs[i].Expected(); e > worst {
				worst = e
			}
		}
		s, err := Compute(0, perfs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Scheduled makespan: paired weak clients finish at their pair
		// estimate; everyone else at their solo time.
		paired := make(map[comm.NodeID]time.Duration)
		for _, p := range s.Pairs {
			paired[p.Weak] = p.Estimate
			paired[p.Strong] = p.Estimate
		}
		var makespan time.Duration
		for _, p := range perfs {
			fin := p.Expected()
			if est, ok := paired[p.ID]; ok {
				fin = est
			}
			if fin > makespan {
				makespan = fin
			}
		}
		if makespan < worst {
			improved++
		}
		if makespan > worst {
			t.Fatalf("trial %d: schedule increased makespan %v > %v", trial, makespan, worst)
		}
	}
	if improved < trials/2 {
		t.Fatalf("schedule improved only %d/%d heterogeneous instances", improved, trials)
	}
}

func TestEnvelopeSignVerify(t *testing.T) {
	signer, err := NewSigner(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(signer.PublicKey())
	d := Directive{Client: 1, Round: 3, Role: RoleOffload, Peer: 2, OffloadAfter: 10}
	env, err := signer.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(env, 3); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestEnvelopeReplayRejected(t *testing.T) {
	signer, _ := NewSigner(rand.Reader)
	v := NewVerifier(signer.PublicKey())
	env, _ := signer.Sign(Directive{Client: 1, Round: 0})
	if err := v.Verify(env, 0); err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(env, 0); !errors.Is(err, ErrReplay) {
		t.Fatalf("err = %v, want ErrReplay", err)
	}
}

func TestEnvelopeStaleRoundRejected(t *testing.T) {
	signer, _ := NewSigner(rand.Reader)
	v := NewVerifier(signer.PublicKey())
	env, _ := signer.Sign(Directive{Client: 1, Round: 2})
	if err := v.Verify(env, 5); !errors.Is(err, ErrStaleRound) {
		t.Fatalf("err = %v, want ErrStaleRound", err)
	}
}

func TestEnvelopeTamperedRejected(t *testing.T) {
	signer, _ := NewSigner(rand.Reader)
	v := NewVerifier(signer.PublicKey())
	env, _ := signer.Sign(Directive{Client: 1, Round: 0, OffloadAfter: 5})
	env.Directive.OffloadAfter = 50
	if err := v.Verify(env, 0); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestEnvelopeWrongKeyRejected(t *testing.T) {
	signer, _ := NewSigner(rand.Reader)
	other, _ := NewSigner(rand.Reader)
	v := NewVerifier(other.PublicKey())
	env, _ := signer.Sign(Directive{Client: 1})
	if err := v.Verify(env, 0); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestSignerSequenceMonotonic(t *testing.T) {
	signer, _ := NewSigner(rand.Reader)
	var last uint64
	for i := 0; i < 10; i++ {
		env, err := signer.Sign(Directive{Client: comm.NodeID(i)})
		if err != nil {
			t.Fatal(err)
		}
		if env.Seq <= last {
			t.Fatalf("seq %d not increasing after %d", env.Seq, last)
		}
		last = env.Seq
	}
}

// PairFor returns the pair involving the given client (as weak or strong)
// and whether one exists.
func (s Schedule) PairFor(id comm.NodeID) (Pair, bool) {
	for _, p := range s.Pairs {
		if p.Weak == id || p.Strong == id {
			return p, true
		}
	}
	return Pair{}, false
}
