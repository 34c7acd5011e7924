package fl

import (
	"runtime"
	"testing"

	"aergia/internal/race"
)

// TestRoundAllocationBudget pins what a sim_hostile-shaped run — FedAvg,
// topk, serial, churn — allocates per client-round, in model sizes
// (Weights.ByteSize()). A round ships one global and gets one update per
// client back; what it costs in memory is per round, not per message: the
// dispatch is one shared snapshot, and the update's snapshot and decode go
// through leased vectors. Copying the model per dispatch, per encode and per
// decode read 5.07–5.12 model sizes a client-round here (3.7 at the bench's
// size); the run reads 1.12, and any one of those copies back would cross the
// budget.
func TestRoundAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("under -race sync.Pool drops puts and the detector allocates: the count means nothing")
	}
	const budget = 1.6 // model sizes per client-round
	cfg := churnTopKConfig()
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
		if clientRounds == 0 {
			t.Fatal("no client-round completed")
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(clientRounds) / float64(model)
	}
	// Width 1: no lane worker exists to build a network and workspaces of
	// its own, so the count does not depend on the machine's cores.
	atWidth(1, func() {
		run() // fills the scratch stocks and the metric families
		got := run()
		t.Logf("%.2f model sizes allocated per client-round (budget %.2f)", got, budget)
		if got > budget {
			t.Fatalf("a client-round allocated %.2f model sizes, budget %.2f", got, budget)
		}
	})
}
