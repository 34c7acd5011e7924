package experiments

import (
	"fmt"
	"io"
	"time"

	"aergia/internal/cluster"
	"aergia/internal/comm"
	"aergia/internal/metrics"
	"aergia/internal/nn"
	"aergia/internal/profile"
	"aergia/internal/sched"
	"aergia/internal/tensor"
)

// ---------------------------------------------------------------------------
// Profiler overhead (§4.2, §5.4): the online profiler must stay well below
// 1% of training time.

// ProfilerOverheadResult reports the measured profiler overhead.
type ProfilerOverheadResult struct {
	Arch     nn.Arch
	Batches  int
	Overhead float64 // fraction of profiled compute
}

// ProfilerOverhead measures the profiler's relative cost per architecture.
func ProfilerOverhead(Options) ([]ProfilerOverheadResult, error) {
	archs := []nn.Arch{nn.ArchMNISTCNN, nn.ArchCifar10CNN, nn.ArchCifar10ResNet}
	cm := cluster.DefaultCostModel()
	var out []ProfilerOverheadResult
	for _, a := range archs {
		cost, err := a.PhaseFLOPs()
		if err != nil {
			return nil, err
		}
		ff, fc, bc, bf, err := cm.PhaseDurations(cost, 8, 0.5)
		if err != nil {
			return nil, err
		}
		p := profile.New(-1)
		const batches = 100 // the paper's profiling window
		for i := 0; i < batches; i++ {
			p.RecordBatch(ff, fc, bc, bf)
		}
		total := time.Duration(batches) * (ff + fc + bc + bf)
		out = append(out, ProfilerOverheadResult{
			Arch:     a,
			Batches:  batches,
			Overhead: float64(p.Overhead()) / float64(total),
		})
	}
	return out, nil
}

func renderProfiler(results []ProfilerOverheadResult, w io.Writer) error {
	tbl := metrics.NewTable("network", "profiled-batches", "overhead-%")
	for _, r := range results {
		tbl.AddRow(r.Arch.String(), r.Batches, 100*r.Overhead)
	}
	fmt.Fprintln(w, "Profiler overhead (paper: 0.22% ± 0.09)")
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

// ---------------------------------------------------------------------------
// Ablation: freezing gain per architecture (what the weak client saves by
// skipping the bf phase).

// FreezeGain reports a full vs frozen batch duration for one architecture.
type FreezeGain struct {
	Arch   nn.Arch
	Full   time.Duration
	Frozen time.Duration
	Saving float64 // fraction of the cycle saved
}

// AblationFreeze quantifies the freezing saving across architectures.
func AblationFreeze(Options) ([]FreezeGain, error) {
	archs := []nn.Arch{
		nn.ArchMNISTCNN, nn.ArchFMNISTCNN, nn.ArchCifar10CNN,
		nn.ArchCifar10ResNet, nn.ArchCifar100VGG, nn.ArchCifar100ResNet,
	}
	cm := cluster.DefaultCostModel()
	var out []FreezeGain
	for _, a := range archs {
		cost, err := a.PhaseFLOPs()
		if err != nil {
			return nil, err
		}
		full, err := cm.BatchDuration(cost, 8, 0.5)
		if err != nil {
			return nil, err
		}
		frozen, err := cm.FrozenBatchDuration(cost, 8, 0.5)
		if err != nil {
			return nil, err
		}
		out = append(out, FreezeGain{
			Arch:   a,
			Full:   full,
			Frozen: frozen,
			Saving: 1 - float64(frozen)/float64(full),
		})
	}
	return out, nil
}

func renderAblationFreeze(gains []FreezeGain, w io.Writer) error {
	tbl := metrics.NewTable("network", "full-batch", "frozen-batch", "saving-%")
	for _, g := range gains {
		tbl.AddRow(g.Arch.String(), g.Full, g.Frozen, 100*g.Saving)
	}
	fmt.Fprintln(w, "Ablation: training-cycle saving from freezing the feature layers")
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

// ---------------------------------------------------------------------------
// Ablation: scheduler quality. Algorithm 1 vs no offloading over random
// heterogeneous clusters.

// SchedGain summarizes the scheduler's makespan improvement.
type SchedGain struct {
	Trials        int
	MeanReduction float64 // mean fractional makespan reduction
	MaxReduction  float64
	NeverWorse    bool
}

// AblationSched samples random heterogeneous clusters and compares the
// makespan with and without Algorithm 1's offloading schedule.
func AblationSched(opt Options) (SchedGain, error) {
	rng := tensor.NewRNG(opt.seed() * 31)
	trials := 200
	if opt.Quick {
		trials = 50
	}
	gain := SchedGain{Trials: trials, NeverWorse: true}
	var sum float64
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(20)
		perfs := make([]sched.Perf, n)
		var worst time.Duration
		for i := range perfs {
			speed := 0.1 + 0.9*rng.Float64()
			base := float64(100 * time.Millisecond)
			perfs[i] = sched.Perf{
				ID:        comm.NodeID(i),
				T123:      time.Duration(base * 0.4 / speed),
				T4:        time.Duration(base * 0.6 / speed),
				Remaining: 20 + rng.Intn(40),
			}
			if e := perfs[i].Expected(); e > worst {
				worst = e
			}
		}
		s, err := sched.Compute(0, perfs, sched.Config{})
		if err != nil {
			return SchedGain{}, err
		}
		paired := make(map[comm.NodeID]time.Duration, 2*len(s.Pairs))
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
		red := 1 - float64(makespan)/float64(worst)
		if red < 0 {
			gain.NeverWorse = false
		}
		sum += red
		if red > gain.MaxReduction {
			gain.MaxReduction = red
		}
	}
	gain.MeanReduction = sum / float64(trials)
	return gain, nil
}

func renderAblationSched(gain SchedGain, w io.Writer) error {
	fmt.Fprintln(w, "Ablation: Algorithm 1 makespan reduction over random clusters")
	tbl := metrics.NewTable("trials", "mean-reduction-%", "max-reduction-%", "never-worse")
	tbl.AddRow(gain.Trials, 100*gain.MeanReduction, 100*gain.MaxReduction, gain.NeverWorse)
	_, err := fmt.Fprint(w, tbl.String())
	return err
}
