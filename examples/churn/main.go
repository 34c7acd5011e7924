// Churn: the fault-and-churn proof over real TCP. The same fl.Topology
// that powers the simulator experiments is bound to an rpc.Network through
// a chaos.Transport carrying a full-churn plan: every client crashes once
// inside the crash window and rejoins after its downtime, while the
// federator keeps the rounds converging — crashed clients are written off
// for their round, rejoining clients are re-seeded from the topology seed
// and re-enrolled mid-round when their update can still matter.
//
// The run exits non-zero unless at least one crash and one rejoin actually
// fired, so CI uses it as the end-to-end churn smoke (3 clients, real TCP).
//
// Run with: go run ./examples/churn [-clients N] [-rounds R] [-transport sim|tcp]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/cluster"
	"aergia/internal/dataset"
	"aergia/internal/fl"
	"aergia/internal/nn"
)

func main() {
	clients := flag.Int("clients", 3, "cluster size (>= 2)")
	rounds := flag.Int("rounds", 4, "global communication rounds")
	transport := flag.String("transport", "tcp", "message transport: sim or tcp")
	flag.Parse()
	if err := run(*clients, *rounds, *transport); err != nil {
		log.Fatal(err)
	}
}

func run(clients, rounds int, transport string) error {
	if clients < 2 {
		return fmt.Errorf("need at least 2 clients, got %d", clients)
	}
	speeds := make([]float64, clients)
	for i := range speeds {
		speeds[i] = 0.5 + 0.5*float64(i)/float64(clients)
	}

	top := fl.Topology{
		Strategy:     fl.NewFedAvg(0),
		Arch:         nn.ArchMNISTSmall,
		Dataset:      dataset.MNIST,
		SmallImages:  true,
		Clients:      clients,
		Rounds:       rounds,
		LocalEpochs:  2,
		BatchSize:    8,
		LR:           0.05,
		TrainSamples: 40 * clients,
		TestSamples:  100,
		Speeds:       speeds,
		// The cost model paces wall-clock rounds at a few hundred ms, so
		// the crash window spans the first rounds and every rejoin fires
		// while the run is still going.
		Cost: cluster.CostModel{FLOPSPerSecond: 2e8},
		Seed: 3,
		// Full churn: every client crashes once in the first 400ms and
		// rejoins 250ms later. The quorum lets rounds aggregate while part
		// of the cluster is dark; the round timeout bounds a blackout.
		Chaos: chaos.Plan{
			Churn:        1,
			Rejoin:       1,
			Window:       400 * time.Millisecond,
			Down:         250 * time.Millisecond,
			Quorum:       0.34,
			RoundTimeout: 5 * time.Second,
		},
	}
	built, err := top.Build()
	if err != nil {
		return err
	}

	inner, err := fl.NewTransport(transport, nil)
	if err != nil {
		return err
	}
	// The chaos layer injects the plan's faults into any transport; the
	// Deployment below is byte-for-byte the one examples/distributed uses.
	net := chaos.New(inner, built.Topology.Chaos, built.Topology.Seed)
	defer func() {
		if cerr := net.Close(); cerr != nil {
			log.Printf("close network: %v", cerr)
		}
	}()
	fmt.Printf("running %d rounds of FedAvg over %s with %d clients under full churn...\n",
		rounds, transport, clients)
	res, err := (&fl.Deployment{Cluster: built, Transport: net}).Run()
	if err != nil {
		return err
	}

	stats := net.Stats()
	fmt.Printf("finished: accuracy %.3f, wall time %.2fs\n", res.FinalAccuracy, res.TotalTime.Seconds())
	for _, r := range res.Rounds {
		fmt.Printf("  round %d: %.3fs, %d/%d updates\n", r.Round, r.Duration.Seconds(), r.Completed, clients)
	}
	fmt.Printf("faults injected: %d crashes, %d rejoins, %d deliveries to dark nodes dropped, %d timers suppressed\n",
		stats.Crashes, stats.Rejoins, stats.DroppedDown, stats.SuppressedTimers)
	if stats.Crashes == 0 || stats.Rejoins == 0 {
		return fmt.Errorf("churn smoke failed: %d crashes and %d rejoins fired (want >= 1 each)",
			stats.Crashes, stats.Rejoins)
	}
	if len(res.Rounds) != rounds {
		return fmt.Errorf("churn smoke failed: %d rounds completed, want %d", len(res.Rounds), rounds)
	}
	return nil
}
