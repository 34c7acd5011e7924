package experiments

import (
	"fmt"
	"io"
	"time"

	"aergia/internal/dataset"
	"aergia/internal/fl"
	"aergia/internal/metrics"
	"aergia/internal/tensor"
)

// AsyncComparison contrasts synchronous FedAvg, Aergia, and asynchronous
// aggregation (§2.3) under an equal local-update budget.
type AsyncComparison struct {
	Name          string
	Accuracy      float64
	TotalTime     time.Duration
	MeanStaleness float64
}

// AsyncStudy runs the comparison the paper motivates qualitatively:
// asynchronous aggregation removes idle waiting, but stale updates slow
// convergence and cost accuracy; Aergia removes the waiting while staying
// synchronous.
func AsyncStudy(opt Options) ([]AsyncComparison, error) {
	s := opt.scale()
	updatesBudget := s.rounds * s.clients
	syncStrats := []fl.Strategy{fl.NewFedAvg(0), fl.NewAergia(0, 1)}
	out := make([]AsyncComparison, len(syncStrats)+1)
	runs := make([]func(Options) error, 0, len(out))
	for i, strat := range syncStrats {
		runs = append(runs, func(o Options) error {
			cfg, err := o.baseConfig(dataset.FMNIST, strat)
			if err != nil {
				return err
			}
			cfg.NonIIDClasses = 3
			res, err := fl.Run(cfg)
			if err != nil {
				return fmt.Errorf("async study %s: %w", strat.Name(), err)
			}
			out[i] = AsyncComparison{
				Name:      res.Strategy,
				Accuracy:  res.FinalAccuracy,
				TotalTime: res.TotalTime,
			}
			return nil
		})
	}
	runs = append(runs, func(o Options) error {
		be, err := tensor.NewBackend(o.Backend, 0)
		if err != nil {
			return err
		}
		asyncRes, err := fl.RunAsync(fl.AsyncConfig{
			Arch:             archFor(dataset.FMNIST),
			Dataset:          dataset.FMNIST,
			SmallImages:      true,
			Clients:          s.clients,
			TotalUpdates:     updatesBudget,
			LocalEpochs:      s.localEpochs,
			BatchSize:        s.batchSize,
			TrainSamples:     s.trainPerCli * s.clients,
			TestSamples:      s.testSamples,
			NonIIDClasses:    3,
			NoiseStd:         s.noiseStd,
			SpeedJitter:      s.speedJitter,
			Seed:             o.seed(),
			Chaos:            o.Chaos,
			Backend:          be,
			Codec:            o.Codec,
			Transport:        o.Transport,
			TransportTimeout: o.TransportTimeout,
			Spans:            o.Spans,
			Events:           o.Events,
		})
		if err != nil {
			return fmt.Errorf("async study fedasync: %w", err)
		}
		out[len(syncStrats)] = AsyncComparison{
			Name:          "fedasync",
			Accuracy:      asyncRes.FinalAccuracy,
			TotalTime:     asyncRes.TotalTime,
			MeanStaleness: asyncRes.MeanStaleness,
		}
		return nil
	})
	if err := runAll(opt, runs...); err != nil {
		return nil, err
	}
	return out, nil
}

func renderAsyncStudy(rows []AsyncComparison, w io.Writer) error {
	fmt.Fprintln(w, "Async study (§2.3): equal local-update budgets, non-IID FMNIST")
	tbl := metrics.NewTable("approach", "accuracy", "total-time", "mean-staleness")
	for _, r := range rows {
		tbl.AddRow(r.Name, r.Accuracy, r.TotalTime, r.MeanStaleness)
	}
	_, err := fmt.Fprint(w, tbl.String())
	return err
}
