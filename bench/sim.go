package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/fl"
	"aergia/internal/hier"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/sim"
	"aergia/internal/tensor"
)

// simSpec is one simulator workload: the fl.Config of an op with a fresh
// strategy per call (strategies keep per-run state), and the number of
// timed ops a run of refSeconds performs.
type simSpec struct {
	name string
	// ops is the timed op count at refSeconds; other run lengths scale it.
	ops int
	// config returns the op's configuration for a topology seed; toy
	// shrinks it to smoke-test size.
	config func(seed uint64, be tensor.Backend, toy bool) fl.Config
	// backend names the tensor backend the workload runs on.
	backend string
}

// hostilePlan is sim_hostile's fault schedule: 30% of the clients crash
// inside the first 20 virtual seconds and all come back 4 s later, every
// link adds up to 20 ms, and the federator runs with a 60% quorum and a
// 15 s round timeout.
var hostilePlan = chaos.Plan{
	Churn: .3, Rejoin: 1, Window: 20 * time.Second, Down: 4 * time.Second,
	Delay: 20 * time.Millisecond, Quorum: .6, RoundTimeout: 15 * time.Second,
}

var simSpecs = []simSpec{
	{
		// The paper's headline scenario. 92% of an op is nn.TrainBatch and
		// the tensor kernels under it, so a kernel change shows here and a
		// codec or control-plane change must not.
		name: "sim_aergia", ops: 11, backend: "serial",
		config: func(seed uint64, be tensor.Backend, toy bool) fl.Config {
			clients, rounds := 24, 6
			if toy {
				clients, rounds = 8, 2
			}
			c := baseConfig(seed, be, clients, 40)
			c.Strategy = fl.NewAergia(0, 1)
			c.Rounds, c.LocalEpochs, c.BatchSize = rounds, 2, 8
			c.Speeds = speedLadder(seed, clients)
			c.Link = sim.UniformLink(10*time.Millisecond, 1e6)
			return c
		},
	},
	{
		// Many short rounds under churn with the topk codec: encode/decode,
		// residuals, federator liveness and GC are the work, so a tensor
		// gain bought with allocation or codec time shows as a loss here.
		name: "sim_hostile", ops: 8, backend: "serial",
		config: func(seed uint64, be tensor.Backend, toy bool) fl.Config {
			clients, rounds := 24, 24
			if toy {
				clients, rounds = 8, 6
			}
			c := baseConfig(seed, be, clients, 16)
			c.Strategy = fl.NewFedAvg(0)
			c.Rounds, c.LocalEpochs, c.BatchSize = rounds, 1, 8
			c.Speeds = speedLadder(seed, clients)
			c.Codec = "topk"
			c.Chaos = hostilePlan
			return c
		},
	},
	{
		// examples/scale's topology at N=100000: hydration, float32
		// training, GC and the only O(N) code (shells, sampler, Route).
		name: "hier_scale", ops: 12, backend: "parallel32",
		config: func(seed uint64, be tensor.Backend, toy bool) fl.Config {
			n, cohort := 100000, 512
			if toy {
				n, cohort = 2000, 64
			}
			c := baseConfig(seed, be, n, 8)
			c.Strategy = fl.NewFedAvg(0)
			c.NonIIDClasses = 0
			c.Rounds, c.LocalEpochs, c.BatchSize = 2, 1, 4
			c.TestSamples = 256
			c.EvalEvery = c.Rounds
			c.Hier = hier.Options{Sample: float64(cohort) / float64(n), Tiers: 32}
			return c
		},
	},
}

// speedLadder spreads n client speeds evenly over the paper's [0.1, 1.0]
// and deals them out in an order drawn from seed. Every seed then has the
// same mix of weak and strong clients, so the work Aergia's offloading and
// the federator's deadlines cause does not depend on how uniform draws
// happened to fall, only on who is paired with whom.
func speedLadder(seed uint64, n int) []float64 {
	speeds := make([]float64, n)
	for i, rank := range tensor.NewRNG(seed ^ 0x1adde7).Perm(n) {
		speeds[i] = 0.1 + 0.9*(float64(rank)+0.5)/float64(n)
	}
	return speeds
}

// scaleSeed derives hier_scale's topology seed from the run's seed: the
// first of seed*1024+j whose rounds together sample rounds x the cohort the
// sampling fraction asks for (2 x 512 of 100000). The sampler is a hash, so
// a cohort's size is binomial (3% either way at 512 of 100000); time,
// allocation and live heap follow the number of clients trained, and would
// differ between seeds by more than their bounds. Pinning the sum makes
// every seed train the same number of clients per op; how they split over
// the rounds (500+524, say) still differs. Pinning each round is out of
// reach: one candidate in 3000 has both rounds exact, against one in 80 for
// the sum, and a candidate costs 200000 hashes.
func scaleSeed(seed uint64, cfg fl.Config) uint64 {
	ids := make([]comm.NodeID, cfg.Clients)
	for i := range ids {
		ids[i] = comm.NodeID(i)
	}
	want := cfg.Rounds * int(math.Round(cfg.Hier.Sample*float64(cfg.Clients)))
	best, bestGap := seed*1024, -1
	for j := uint64(0); j < 1024; j++ {
		s := hier.Sampler{Seed: seed*1024 + j, Fraction: cfg.Hier.Sample}
		got := 0
		for r := 0; r < cfg.Rounds; r++ {
			got += len(s.Cohort(r, ids))
		}
		gap := max(got-want, want-got)
		if gap == 0 {
			return s.Seed
		}
		if bestGap < 0 || gap < bestGap {
			best, bestGap = s.Seed, gap
		}
	}
	return best
}

// baseConfig holds what every simulator workload shares: the synthetic
// MNIST generator at the downscaled shape, MNISTSmall, non-IID(3) shards.
func baseConfig(seed uint64, be tensor.Backend, clients, samplesPerClient int) fl.Config {
	return fl.Config{
		Arch:          nn.ArchMNISTSmall,
		Dataset:       dataset.MNIST,
		SmallImages:   true,
		Clients:       clients,
		TrainSamples:  samplesPerClient * clients,
		NonIIDClasses: 3,
		Seed:          seed,
		Backend:       be,
	}
}

// fingerprint hashes what an op computed: per-round virtual durations, the
// final accuracy's bits, the offload count and the bandwidth ledger. Two
// ops of one workload and seed must agree on it.
func fingerprint(r *fl.Results) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, rs := range r.Rounds {
		put(uint64(rs.Duration))
	}
	put(math.Float64bits(r.FinalAccuracy))
	put(uint64(r.TotalOffloads()))
	bw := r.Bandwidth
	for _, v := range []int64{bw.DispatchBytes, bw.UpdateBytes, bw.OffloadBytes,
		bw.ResultBytes, bw.ControlBytes, bw.TotalBytes} {
		put(uint64(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// deployment is one op taken apart: the built cluster and the transport
// stack fl.Run composes, from the same public wrappers in the same order,
// so the harness can keep the cluster referenced (heap_live_mb) or put a
// decorator outermost (traced runs).
type deployment struct {
	cluster   *fl.Cluster
	chaos     *chaos.Transport // nil when the plan is zero
	transport comm.Transport
}

// buildDeployment is fl.Run up to Deployment.Run. outer, when set, wraps the
// finished stack.
func buildDeployment(cfg fl.Config, outer func(comm.Transport) comm.Transport) (*deployment, error) {
	cl, err := cfg.Topology().Build()
	if err != nil {
		return nil, err
	}
	tr, err := fl.NewTransport(fl.TransportSim, cfg.Link)
	if err != nil {
		return nil, err
	}
	d := &deployment{cluster: cl}
	tr = chaos.Wrap(tr, cl.Topology.Chaos, cl.Topology.Seed)
	d.chaos, _ = tr.(*chaos.Transport)
	tr = obs.WrapTransport(tr, obs.Default)
	tr = obs.NewTracer(fl.NormalizeSeed(cfg.Seed)).Wrap(tr)
	if outer != nil {
		tr = outer(tr)
	}
	d.transport = tr
	return d, nil
}

// run drives the deployment to completion and closes its transport.
func (d *deployment) run() (*fl.Results, error) {
	res, err := (&fl.Deployment{Cluster: d.cluster, Transport: d.transport}).Run()
	if cerr := d.transport.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// hydrated counts the shells of a tiered cluster that materialised a client.
func (d *deployment) hydrated() int {
	if d.cluster.Hier == nil {
		return 0
	}
	n := 0
	for _, s := range d.cluster.Hier.Shells {
		n += s.Hydrations()
	}
	return n
}

// scaledOps sizes a run: the op count is fixed for a given -seconds, so
// allocation and heap numbers compare between commits, and grows with it.
func scaledOps(ops int, seconds float64) int {
	n := int(math.Round(float64(ops) * seconds / refSeconds))
	return max(n, 2)
}

func specByName(name string) (simSpec, error) {
	for _, s := range simSpecs {
		if s.name == name {
			return s, nil
		}
	}
	return simSpec{}, fmt.Errorf("unknown simulator workload %q", name)
}
