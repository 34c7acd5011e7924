package fl_test

import (
	"fmt"
	"log"
	"os"

	"aergia/internal/dataset"
	"aergia/internal/fl"
	"aergia/internal/nn"
	"aergia/internal/trace"
)

// Train a federated model on a heterogeneous simulated cluster with FedAvg,
// then with Aergia, and compare accuracy and training time.
func Example() {
	base := fl.Config{
		Arch:         nn.ArchMNISTSmall,
		Dataset:      dataset.MNIST,
		SmallImages:  true,
		Clients:      12,
		Rounds:       10,
		LocalEpochs:  2,
		BatchSize:    8,
		TrainSamples: 480,
		TestSamples:  150,
		NoiseStd:     1.4,
		Seed:         42,
	}

	fmt.Println("Aergia quickstart: 12 heterogeneous clients, synthetic MNIST")
	fmt.Println()
	for _, strat := range []fl.Strategy{fl.NewFedAvg(0), fl.NewAergia(0, 1)} {
		cfg := base
		cfg.Strategy = strat
		res, err := fl.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", strat.Name(), err)
		}
		fmt.Printf("%-8s final accuracy %.3f  total time %8.2fs  mean round %6.2fs  offloads %d\n",
			res.Strategy, res.FinalAccuracy, res.TotalTime.Seconds(),
			res.MeanRoundDuration().Seconds(), res.TotalOffloads())
		for _, r := range res.Rounds {
			if r.Accuracy >= 0 {
				fmt.Printf("   round %2d  %6.2fs  acc %.3f\n",
					r.Round, r.Duration.Seconds(), r.Accuracy)
			}
		}
		fmt.Println()
	}
	fmt.Println("Aergia finishes the same number of rounds in less time by freezing")
	fmt.Println("the stragglers' feature layers and offloading them to fast clients.")
	// Output:
	// Aergia quickstart: 12 heterogeneous clients, synthetic MNIST
	//
	// fedavg   final accuracy 0.987  total time    51.98s  mean round   5.20s  offloads 0
	//    round  0    5.20s  acc 0.307
	//    round  1    5.20s  acc 0.653
	//    round  2    5.20s  acc 0.900
	//    round  3    5.20s  acc 0.940
	//    round  4    5.20s  acc 0.960
	//    round  5    5.20s  acc 0.967
	//    round  6    5.20s  acc 0.973
	//    round  7    5.20s  acc 0.973
	//    round  8    5.20s  acc 0.980
	//    round  9    5.20s  acc 0.987
	//
	// aergia   final accuracy 0.993  total time    24.79s  mean round   2.47s  offloads 30
	//    round  0    2.47s  acc 0.353
	//    round  1    2.47s  acc 0.647
	//    round  2    2.47s  acc 0.927
	//    round  3    2.47s  acc 0.953
	//    round  4    2.47s  acc 0.967
	//    round  5    2.47s  acc 0.967
	//    round  6    2.47s  acc 0.967
	//    round  7    2.47s  acc 0.980
	//    round  8    2.47s  acc 0.973
	//    round  9    2.47s  acc 0.993
	//
	// Aergia finishes the same number of rounds in less time by freezing
	// the stragglers' feature layers and offloading them to fast clients.
}

// Record and render the event timeline of Aergia rounds, the executable
// counterpart of the paper's Figure 5 (profiling, scheduling, freezing and
// offloading, helper training, aggregation).
func Example_timeline() {
	tl := trace.NewLog()
	cfg := fl.Config{
		Strategy:     fl.NewAergia(0, 1),
		Arch:         nn.ArchMNISTSmall,
		Dataset:      dataset.MNIST,
		SmallImages:  true,
		Clients:      6,
		Rounds:       2,
		LocalEpochs:  2,
		BatchSize:    8,
		TrainSamples: 240,
		TestSamples:  80,
		// Two stragglers against four strong clients.
		Speeds: []float64{0.12, 0.18, 0.9, 0.95, 1.0, 0.85},
		Seed:   21,
		Trace:  tl,
	}
	res, err := fl.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Aergia round timeline (compare with the paper's Figure 5)")
	fmt.Println()
	fmt.Println("Round 0, chronological:")
	sub := trace.NewLog()
	for _, e := range tl.FilterRound(0) {
		sub.Record(e.Time, e.Node, e.Round, e.Kind, e.Detail)
	}
	if err := sub.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("Round 0, per-node lanes:")
	if err := sub.Lanes(os.Stdout, 72); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("run: %d rounds, final accuracy %.3f, %d offloads, total %v\n",
		len(res.Rounds), res.FinalAccuracy, res.TotalOffloads(), res.TotalTime)
	// Output:
	// Aergia round timeline (compare with the paper's Figure 5)
	//
	// Round 0, chronological:
	//      0.000s  r0   federator  round-start    6 clients selected
	//      0.000s  r0   client 0   train-start    10 batches, speed 0.12
	//      0.000s  r0   client 1   train-start    10 batches, speed 0.18
	//      0.000s  r0   client 2   train-start    10 batches, speed 0.90
	//      0.000s  r0   client 3   train-start    10 batches, speed 0.95
	//      0.000s  r0   client 4   train-start    10 batches, speed 1.00
	//      0.000s  r0   client 5   train-start    10 batches, speed 0.85
	//      0.118s  r0   client 4   profile-sent   full batch 118.070399ms
	//      0.125s  r0   client 3   profile-sent   full batch 124.284629ms
	//      0.131s  r0   client 2   profile-sent   full batch 131.189331ms
	//      0.139s  r0   client 5   profile-sent   full batch 138.906351ms
	//      0.657s  r0   client 1   profile-sent   full batch 655.946665ms
	//      0.986s  r0   client 0   profile-sent   full batch 983.92ms
	//      0.986s  r0   federator  schedule-sent  weak 0 -> strong 4 after 1 updates
	//      0.986s  r0   federator  schedule-sent  weak 1 -> strong 2 after 1 updates
	//      0.986s  r0   client 0   model-frozen   after 1 batches
	//      0.986s  r0   client 0   offload-sent   to client 4, 9 updates
	//      0.986s  r0   client 1   model-frozen   after 1 batches
	//      0.986s  r0   client 1   offload-sent   to client 2, 9 updates
	//      1.181s  r0   client 4   update-sent    full model
	//      1.181s  r0   client 4   helper-start   training 9 offloaded updates for client 0
	//      1.243s  r0   client 3   update-sent    full model
	//      1.312s  r0   client 2   update-sent    full model
	//      1.312s  r0   client 2   helper-start   training 9 offloaded updates for client 1
	//      1.389s  r0   client 5   update-sent    full model
	//      1.801s  r0   client 4   helper-done    returning features of client 0
	//      2.001s  r0   client 2   helper-done    returning features of client 1
	//      3.444s  r0   client 1   update-sent    classifier only (features offloaded)
	//      4.673s  r0   client 0   update-sent    classifier only (features offloaded)
	//      4.673s  r0   federator  round-end      duration 4.672844624s, 6 updates, 2 offloads
	//
	// Round 0, per-node lanes:
	// legend: | start  p profile  s schedule  f freeze  o offload  h/H helper  u update  # round-end  x crash  r rejoin  R reassign
	// federator  |.............s........................................................#
	// client  0  |.............o........................................................u
	// client  1  |........p....o.....................................u...................
	// client  2  |p.................h..........H.........................................
	// client  3  |p................u.....................................................
	// client  4  |p...............h.........H............................................
	// client  5  |.p..................u..................................................
	//
	// run: 2 rounds, final accuracy 1.000, 4 offloads, total 9.445689248s
}
