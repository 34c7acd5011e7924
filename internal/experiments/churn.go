package experiments

import (
	"fmt"
	"io"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/cluster"
	"aergia/internal/comm"
	"aergia/internal/dataset"
	"aergia/internal/fl"
	"aergia/internal/metrics"
)

// ChurnCell is one (churn rate, strategy) cell of the fig-churn study.
type ChurnCell struct {
	// Churn is the fraction of clients that crash during the run.
	Churn float64
	// Strategy is the FL algorithm under churn.
	Strategy string
	// Accuracy is the final test accuracy.
	Accuracy float64
	// TotalTime is the full training duration.
	TotalTime time.Duration
	// TimeToAccuracy is the elapsed time at which the target accuracy
	// (ChurnAccuracyTarget) was first reached; 0 means never.
	TimeToAccuracy time.Duration
	// MeanCompleted is the average number of updates aggregated per round.
	MeanCompleted float64
	// Crashes and Rejoins count the scheduled fault events that fall
	// within the run's horizon (event time <= TotalTime) — on the sim
	// transport, exactly the ones that could perturb training.
	Crashes int
	Rejoins int
}

// ChurnAccuracyTarget is the accuracy level the time-to-accuracy column of
// fig-churn measures against.
const ChurnAccuracyTarget = 0.6

// fedCSForChurn builds the FedCS baseline: an analytic round-time estimate
// from the offline-profiled speed, with the budget sized so mid-speed
// clients fit (the paper's §6.2 setup).
func (o Options) fedCSForChurn(kind dataset.Kind) (fl.Strategy, error) {
	phase, err := archFor(kind).PhaseFLOPs()
	if err != nil {
		return nil, err
	}
	s := o.scale()
	cost := cluster.DefaultCostModel()
	updates := s.localEpochs * ((s.trainPerCli + s.batchSize - 1) / s.batchSize)
	estimate := func(c fl.ClientInfo) time.Duration {
		d, err := cost.BatchDuration(phase, s.batchSize, c.Speed)
		if err != nil {
			return time.Hour
		}
		return time.Duration(updates) * d
	}
	return fl.NewFedCS(0, estimate(fl.ClientInfo{Speed: 0.5}), estimate), nil
}

// churnPlanFor derives the per-cell fault schedule: the caller's base plan
// (Options.Chaos, possibly zero) with the cell's churn rate and — when the
// base plan leaves them unset — rejoin-always, a crash window spanning the
// early rounds, and a 60% quorum, all scaled by the fault-free FedAvg round
// duration so the schedule stresses the same fraction of every run. Every
// cell goes through it, churn=0 included: the cell's rate always replaces
// the base plan's, so the axis varies exactly one thing and the baseline
// column is genuinely crash-free even when a -chaos spec carries churn.
func churnPlanFor(base chaos.Plan, churn float64, round time.Duration) (chaos.Plan, error) {
	p := base
	p.Churn = churn
	if p.Rejoin == 0 {
		p.Rejoin = 1
	}
	if p.Window == 0 {
		p.Window = 3 * round
	}
	if p.Down == 0 {
		p.Down = round
	}
	if p.Quorum == 0 {
		p.Quorum = 0.6
	}
	if p.RoundTimeout == 0 {
		p.RoundTimeout = 4 * round
	}
	return p.Normalized()
}

// FigChurn measures resilience to client churn: final accuracy and
// time-to-accuracy of Aergia vs. FedAvg vs. FedCS on non-IID FMNIST as the
// fraction of crashing clients grows. Crashed clients rejoin one round
// later (the rejoin handshake re-seeds them), rounds proceed on a 60%
// quorum, and every fault is seed-derived, so each cell is exactly
// reproducible on the sim transport.
func FigChurn(opt Options) ([]ChurnCell, error) {
	kind := dataset.FMNIST
	churnRates := []float64{0, 0.2, 0.5}
	if opt.Quick {
		churnRates = []float64{0, 0.5}
	}
	fedcs, err := opt.fedCSForChurn(kind)
	if err != nil {
		return nil, err
	}
	strategies := []fl.Strategy{fl.NewAergia(0, 1), fl.NewFedAvg(0), fedcs}

	// Fault-free FedAvg calibrates the crash window and quorum timeout.
	calib, err := runEach(opt, []fl.Strategy{fl.NewFedAvg(0)}, func(o Options, strat fl.Strategy) (*fl.Results, error) {
		cfg, err := o.baseConfig(kind, strat)
		if err != nil {
			return nil, err
		}
		cfg.NonIIDClasses = 3
		cfg.Rounds = 2
		cfg.EvalEvery = 100 // calibration run: timing only
		cfg.Chaos = chaos.Plan{}
		res, err := fl.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig-churn calibration: %w", err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	round := calib[0].MeanRoundDuration()

	type cell struct {
		churn float64
		strat fl.Strategy
	}
	var cells []cell
	for _, churn := range churnRates {
		for _, strat := range strategies {
			cells = append(cells, cell{churn, strat})
		}
	}
	return runEach(opt, cells, func(o Options, c cell) (ChurnCell, error) {
		cfg, err := o.baseConfig(kind, c.strat)
		if err != nil {
			return ChurnCell{}, err
		}
		cfg.NonIIDClasses = 3
		cfg.Chaos, err = churnPlanFor(o.Chaos, c.churn, round)
		if err != nil {
			return ChurnCell{}, err
		}
		res, err := fl.Run(cfg)
		if err != nil {
			return ChurnCell{}, fmt.Errorf("fig-churn churn=%v %s: %w", c.churn, c.strat.Name(), err)
		}
		cell := ChurnCell{
			Churn:     c.churn,
			Strategy:  res.Strategy,
			Accuracy:  res.FinalAccuracy,
			TotalTime: res.TotalTime,
		}
		times, accs := res.AccuracyOverTime()
		for i, acc := range accs {
			if acc >= ChurnAccuracyTarget {
				cell.TimeToAccuracy = times[i]
				break
			}
		}
		var completed int
		for _, r := range res.Rounds {
			completed += r.Completed
		}
		if len(res.Rounds) > 0 {
			cell.MeanCompleted = float64(completed) / float64(len(res.Rounds))
		}
		// The transport clock starts at 0 with round 0: PreTraining is
		// charged offline in Build, so it is not part of the horizon.
		cell.Crashes, cell.Rejoins = churnFaultCounts(cfg.Chaos, cfg.Seed, cfg.Clients,
			res.TotalTime-res.PreTraining)
		return cell, nil
	})
}

// churnFaultCounts reports how many of the plan's crash/rejoin events fall
// within the run's horizon. The schedule is deterministic, so re-expanding
// it reproduces the transport's timeline without instrumenting it; events
// past horizon are excluded because they cannot have touched training (a
// short run — e.g. FedCS's deadline-cut rounds — outruns part of the crash
// window).
func churnFaultCounts(plan chaos.Plan, seed uint64, clients int, horizon time.Duration) (crashes, rejoins int) {
	nodes := make([]comm.NodeID, clients)
	for i := range nodes {
		nodes[i] = comm.NodeID(i)
	}
	for _, f := range plan.Expand(fl.NormalizeSeed(seed), nodes) {
		if f.Crashes && f.CrashAt <= horizon {
			crashes++
		}
		if f.Rejoins && f.RejoinAt <= horizon {
			rejoins++
		}
	}
	return crashes, rejoins
}

func renderFigChurn(cells []ChurnCell, w io.Writer) error {
	fmt.Fprintln(w, "Figure churn: accuracy and time-to-accuracy under client churn (Aergia vs FedAvg vs FedCS)")
	tbl := metrics.NewTable("churn", "strategy", "accuracy",
		fmt.Sprintf("time-to-%.0f%%", 100*ChurnAccuracyTarget), "total-time", "updates/round", "crashes", "rejoins")
	for _, c := range cells {
		tta := "never"
		if c.TimeToAccuracy > 0 {
			tta = c.TimeToAccuracy.String()
		}
		tbl.AddRow(c.Churn, c.Strategy, c.Accuracy, tta, c.TotalTime, c.MeanCompleted, c.Crashes, c.Rejoins)
	}
	_, err := fmt.Fprint(w, tbl.String())
	return err
}
