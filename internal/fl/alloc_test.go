package fl

import (
	"runtime"
	"testing"

	"aergia/internal/race"
)

// TestRoundAllocationBudget pins what a run allocates per client-round, in
// model sizes (Weights.ByteSize()). A round ships one global and gets one
// update per client back; what it costs in memory is per round, not per
// message: the dispatch is one shared snapshot, and every vector a message
// carries — an update, an offload shipment, a helper's features, an edge's
// aggregate — is leased from the run's free list and returned by its last
// reader, or shipped by reference and never written. Each case's budget sits
// between what the run reads and what it reads with any one per-message copy
// restored:
//   - fedavg-topk-churn, sim_hostile's shape: 1.12 (budget 1.6); a Clone per
//     dispatch, a fresh snapshot before encode or a fresh decode read
//     2.0–2.3, and all three 5.07–5.12;
//   - aergia-none, sim_aergia's shape with offloading on: 1.43 (budget 1.6;
//     the freeze-time snapshot stays fresh); a fresh update snapshot reads
//     2.33, a Clone per offload shipment 1.83, a fresh helper snapshot 1.76,
//     and all of them 3.04;
//   - tiered-none, hier_scale's shape: 0.73 (budget 0.95); a shard drawn at
//     each dispatch into fresh tensors instead of leased ones reads 0.96,
//     and, measured when the count read 0.75, a fresh update snapshot 1.65,
//     a fresh edge aggregate 1.15, and both 2.06.
func TestRoundAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("under -race sync.Pool drops puts and the detector allocates: the count means nothing")
	}
	for _, tc := range []struct {
		name   string
		cfg    func() Config
		budget float64 // model sizes per client-round
	}{
		{"fedavg-topk-churn", churnTopKConfig, 1.6},
		{"aergia-none", aergiaAllocConfig, 1.6},
		{"tiered-none", tieredAllocConfig, 0.95},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			run := func() (perRound float64) {
				cl, err := cfg.Topology().Build()
				if err != nil {
					t.Fatal(err)
				}
				model := cl.Federator.GlobalWeights().ByteSize()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := runOn(cl, cfg.Transport, cfg.Link, 0, (*Deployment).Run)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				clientRounds := 0
				for _, r := range res.Rounds {
					clientRounds += r.Completed
				}
				if cfg.Hier.Tiers > 0 {
					// The root aggregates one update per edge; the clients'
					// are the rest of the codec-free update traffic.
					clientRounds = int(res.Bandwidth.UpdateBytes)/model - clientRounds
				}
				if clientRounds <= 0 {
					t.Fatal("no client-round completed")
				}
				return float64(after.TotalAlloc-before.TotalAlloc) / float64(clientRounds) / float64(model)
			}
			// Width 1: no lane worker exists to build a network and workspaces
			// of its own, so the count does not depend on the machine's cores.
			atWidth(1, func() {
				run() // fills the scratch stocks and the metric families
				got := run()
				t.Logf("%.2f model sizes allocated per client-round (budget %.2f)", got, tc.budget)
				if got > tc.budget {
					t.Fatalf("a client-round allocated %.2f model sizes, budget %.2f", got, tc.budget)
				}
			})
		})
	}
}

// aergiaAllocConfig is sim_aergia's shape at test size: Aergia with
// offloading on, no codec, over enough rounds that the first round's leases
// do not dominate the count.
func aergiaAllocConfig() Config {
	cfg := aergiaShapedConfig()
	cfg.Rounds = 6
	return cfg
}

// tieredAllocConfig is hier_scale's shape at test size: FedAvg behind edge
// aggregators, sampled cohorts, no codec.
func tieredAllocConfig() Config {
	top := hierTopology(3, 0.5)
	top.Rounds = 6
	return Config{
		Strategy:     top.Strategy,
		Arch:         top.Arch,
		Dataset:      top.Dataset,
		SmallImages:  top.SmallImages,
		Clients:      top.Clients,
		Rounds:       top.Rounds,
		BatchSize:    top.BatchSize,
		TrainSamples: top.TrainSamples,
		TestSamples:  top.TestSamples,
		EvalEvery:    top.EvalEvery,
		Seed:         top.Seed,
		Hier:         top.Hier,
	}
}
