// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each runner
// returns structured results and can print the same rows/series the paper
// reports. Options.Quick shrinks configurations so the full suite runs in
// benchmark-friendly time; the shapes of the results are preserved.
package experiments

import (
	"fmt"
	"io"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/cluster"
	"aergia/internal/codec"
	"aergia/internal/dataset"
	"aergia/internal/fl"
	"aergia/internal/hier"
	"aergia/internal/metrics"
	"aergia/internal/nn"
	"aergia/internal/obs"
	"aergia/internal/sim"
	"aergia/internal/tensor"
	"aergia/internal/trace"
)

// Options tunes the experiment scale. The JSON encoding is part of the
// result-record schema (see Record), so field tags are stable.
type Options struct {
	// Quick shrinks cluster size, rounds, and dataset so the whole suite
	// runs in benchmark time.
	Quick bool `json:"quick"`
	// Seed drives all randomness; 0 selects the default (1).
	Seed uint64 `json:"seed"`
	// Backend selects the compute backend for all model math: "" or
	// "serial" for the float64 reference, "serial32" for float32, which is
	// bit-identical to its own reruns but diverges from float64 by rounding
	// (DESIGN.md §9). Normalization maps the aliases "parallel" and
	// "parallel32" onto the two.
	Backend string `json:"backend"`
	// Workers selects nothing: it sized the worker pool of the former
	// parallel backends. Normalization sets it to 0, and the field stays so
	// that records and the content-hash job IDs derived from them keep
	// their "workers":0 bytes.
	Workers int `json:"workers"`
	// Transport selects the message transport for the FL runs: "" or "sim"
	// for the deterministic virtual-time simulator, "tcp" for real TCP on
	// loopback. Model math is transport-independent; timings over tcp are
	// wall-clock, so only sim records are deterministic (DESIGN.md §6).
	// Normalization collapses "sim" to "", so default-run records (and the
	// content-hash job IDs derived from them) are byte-identical to the
	// pre-transport schema and existing result stores keep resuming.
	Transport string `json:"transport,omitempty"`
	// TransportTimeout bounds each wall-clock (tcp) FL run in nanoseconds;
	// 0 selects the transport default (2 minutes). A tcp run takes the real
	// time it simulates, so full-scale experiments need a generous bound.
	// Ignored (and normalized away) on the sim transport.
	TransportTimeout time.Duration `json:"transport_timeout,omitempty"`
	// Chaos is the fault schedule applied to every FL run of the
	// experiment (internal/chaos, DESIGN.md §7): seed-derived client
	// crashes, rejoins, compute spikes, and lossy links. The zero plan
	// is omitted from the encoding entirely, so fault-free records (and
	// the content-hash job IDs derived from them) stay byte-identical to
	// the pre-chaos schema and existing result stores keep deduping and
	// resuming.
	Chaos chaos.Plan `json:"chaos,omitzero"`
	// Codec selects the wire codec for model-update payloads in every FL
	// run of the experiment: "" or "none" ships raw snapshots (the
	// pre-codec wire format), "q8" quantizes update deltas to int8,
	// "topk" sparsifies them (internal/codec, DESIGN.md §8).
	// Normalization collapses "none" to "", so codec-free records (and
	// their content-hash job IDs) stay byte-identical to the pre-codec
	// schema and existing result stores keep deduping and resuming.
	Codec string `json:"codec,omitempty"`
	// Hier carries the scale-out options for every FL run of the
	// experiment: per-round client sampling and edge aggregation tiers
	// (internal/hier, DESIGN.md §11). The zero value (and the inert
	// Sample 1.0, which normalization collapses to it) is omitted from
	// the encoding entirely, so flat records (and their content-hash job
	// IDs) stay byte-identical to the pre-hier schema and existing
	// result stores keep deduping and resuming.
	Hier hier.Options `json:"hier,omitzero"`
	// Trace, when set, collects the full event timeline of every
	// synchronous FL run in the experiment (the CLI's -trace-out). It is
	// excluded from the JSON encoding — observation must never split the
	// record schema or the content-hash job IDs.
	Trace *trace.Log `json:"-"`
	// Spans, when set, retains every completed message span of the
	// experiment's FL runs (the CLI's -spans-out). Excluded from the JSON
	// encoding for the same reason as Trace.
	Spans *obs.SpanLog `json:"-"`
	// Events, when set, receives per-round obs.RoundEvents from the
	// experiment's FL runs in the serial loop's order: live from the
	// lowest-index run still going, a later run's once the runs before it
	// have finished (runAll). aergiad's runner wires one per job and
	// streams it over SSE. Excluded from the JSON encoding like Trace.
	Events *obs.RoundStream `json:"-"`
}

// seed resolves the default seed through the one normalization rule every
// engine entry point shares (fl.NormalizeSeed): 0 means DefaultSeed.
func (o Options) seed() uint64 { return fl.NormalizeSeed(o.Seed) }

// Normalize resolves the defaults (seed 1, backend "serial", transport
// "sim") into explicit values and rejects unknown backend/transport names.
// Two option values that normalize equally
// configure identical runs, so normalized options are the dedup key of the
// result store. Normalize never constructs a backend — it is safe on
// untrusted daemon input.
func (o Options) Normalize() (Options, error) {
	name, err := tensor.CanonicalBackend(o.Backend)
	if err != nil {
		return Options{}, err
	}
	transport, err := fl.CanonicalTransport(o.Transport)
	if err != nil {
		return Options{}, err
	}
	codecName, err := codec.Canonical(o.Codec)
	if err != nil {
		return Options{}, err
	}
	if o.TransportTimeout < 0 {
		return Options{}, fmt.Errorf("experiments: negative transport timeout %v", o.TransportTimeout)
	}
	plan, err := o.Chaos.Normalized()
	if err != nil {
		return Options{}, err
	}
	o.Chaos = plan
	hierOpts, err := o.Hier.Normalized()
	if err != nil {
		return Options{}, err
	}
	o.Hier = hierOpts
	o.Seed = o.seed()
	o.Backend = name
	o.Transport = transport
	o.Workers = 0
	if o.Transport == fl.TransportSim {
		// Collapse the default transport to "" (and drop its unused
		// timeout) so sim runs cannot split the dedup key — and so default
		// records hash identically to the pre-transport schema, keeping
		// old result stores resumable.
		o.Transport = ""
		o.TransportTimeout = 0
	}
	// Same collapse for the default codec: "none" and "" select the same
	// raw wire format, so only "" may reach the dedup key.
	o.Codec = codecName
	if o.Codec == codec.None {
		o.Codec = ""
	}
	return o, nil
}

// Validate rejects unknown backend names early, before any runner starts.
func (o Options) Validate() error {
	_, err := o.Normalize()
	return err
}

// scale bundles the per-mode experiment sizes.
type scale struct {
	clients      int
	rounds       int
	localEpochs  int
	batchSize    int
	trainPerCli  int
	testSamples  int
	evalEvery    int
	noiseStd     float64
	speedJitter  float64
	participants int
}

func (o Options) scale() scale {
	if o.Quick {
		return scale{
			clients:     10,
			rounds:      5,
			localEpochs: 2,
			batchSize:   8,
			trainPerCli: 40,
			testSamples: 100,
			evalEvery:   2,
			noiseStd:    1.4,
			speedJitter: 0.15,
		}
	}
	return scale{
		clients:     24,
		rounds:      30,
		localEpochs: 2,
		batchSize:   8,
		trainPerCli: 40,
		testSamples: 200,
		evalEvery:   3,
		noiseStd:    1.6,
		speedJitter: 0.15,
	}
}

// archFor maps the dataset to the experiment-scale architecture.
func archFor(kind dataset.Kind) nn.Arch {
	switch kind {
	case dataset.MNIST:
		return nn.ArchMNISTSmall
	case dataset.FMNIST:
		return nn.ArchFMNISTSmall
	default:
		return nn.ArchCifar10Small
	}
}

// baseConfig builds the shared fl.Config for a dataset and strategy. An
// unknown backend name is an error here — the config never silently falls
// back to the serial backend.
func (o Options) baseConfig(kind dataset.Kind, strat fl.Strategy) (fl.Config, error) {
	be, err := tensor.NewBackend(o.Backend, 0)
	if err != nil {
		return fl.Config{}, err
	}
	s := o.scale()
	return fl.Config{
		Strategy:     strat,
		Arch:         archFor(kind),
		Dataset:      kind,
		SmallImages:  true,
		Clients:      s.clients,
		Rounds:       s.rounds,
		LocalEpochs:  s.localEpochs,
		BatchSize:    s.batchSize,
		TrainSamples: s.trainPerCli * s.clients,
		TestSamples:  s.testSamples,
		NoiseStd:     s.noiseStd,
		SpeedJitter:  s.speedJitter,
		EvalEvery:    s.evalEvery,
		// Edge-grade links: 10ms latency, ~1 MB/s; model transfers (global
		// distribution, offloads, updates) pay their wire cost. The link
		// model applies to the sim transport; tcp links are physical.
		Link:             sim.UniformLink(10*time.Millisecond, 1e6),
		Seed:             o.seed(),
		Chaos:            o.Chaos,
		Backend:          be,
		Codec:            o.Codec,
		Hier:             o.Hier,
		Transport:        o.Transport,
		TransportTimeout: o.TransportTimeout,
		Trace:            o.Trace,
		Spans:            o.Spans,
		Events:           o.Events,
	}, nil
}

// strategies returns the five algorithms of the main evaluation grid.
func strategies(participants int) []fl.Strategy {
	return []fl.Strategy{
		fl.NewFedAvg(participants),
		fl.NewFedProx(participants, 0.1),
		fl.NewFedNova(participants),
		fl.NewTiFL(participants, 3),
		fl.NewAergia(participants, 1),
	}
}

// ---------------------------------------------------------------------------
// Figure 1(a): impact of CPU heterogeneity on round duration.

// Fig1aPoint is one (clients, variance) cell of Figure 1(a).
type Fig1aPoint struct {
	Clients    int
	Variance   float64
	Multiplier float64 // round duration relative to the zero-variance case
}

// Fig1a sweeps CPU variance for several cluster sizes and reports the
// round-duration multiplier relative to the homogeneous cluster.
func Fig1a(opt Options) ([]Fig1aPoint, error) {
	clientCounts := []int{3, 5, 7}
	variances := []float64{0, 0.01, 0.04, 0.09, 0.16, 0.25}
	if opt.Quick {
		clientCounts = []int{3, 5}
		variances = []float64{0, 0.04, 0.16}
	}
	type cell struct {
		n int
		v float64
	}
	var cells []cell
	for _, n := range clientCounts {
		for _, v := range variances {
			cells = append(cells, cell{n, v})
		}
	}
	means, err := runEach(opt, cells, func(o Options, c cell) (time.Duration, error) {
		rng := tensor.NewRNG(o.seed()*1000 + uint64(c.n))
		speeds := cluster.SpeedsWithVariance(c.n, 0.5, c.v, rng)
		cfg, err := o.baseConfig(dataset.MNIST, fl.NewFedAvg(0))
		if err != nil {
			return 0, err
		}
		cfg.Clients = c.n
		cfg.Rounds = 2
		cfg.TrainSamples = 40 * c.n
		cfg.Speeds = speeds
		cfg.SpeedJitter = 0
		cfg.EvalEvery = 100 // timing-only experiment
		res, err := fl.Run(cfg)
		if err != nil {
			return 0, fmt.Errorf("fig1a n=%d v=%v: %w", c.n, c.v, err)
		}
		return res.MeanRoundDuration(), nil
	})
	if err != nil {
		return nil, err
	}
	var out []Fig1aPoint
	for i, n := range clientCounts {
		var baseline time.Duration
		for j, v := range variances {
			mean := means[i*len(variances)+j]
			if v == 0 {
				baseline = mean
			}
			mult := 1.0
			if baseline > 0 {
				mult = float64(mean) / float64(baseline)
			}
			out = append(out, Fig1aPoint{Clients: n, Variance: v, Multiplier: mult})
		}
	}
	return out, nil
}

func renderFig1a(points []Fig1aPoint, w io.Writer) error {
	tbl := metrics.NewTable("clients", "cpu-variance", "round-duration-multiplier")
	for _, p := range points {
		tbl.AddRow(p.Clients, p.Variance, p.Multiplier)
	}
	fmt.Fprintln(w, "Figure 1(a): impact of CPU heterogeneity on round duration")
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

// ---------------------------------------------------------------------------
// Figures 1(b) and 1(c): training time and accuracy under deadlines.

// DeadlinePoint is one deadline setting of Figures 1(b)/1(c).
type DeadlinePoint struct {
	Label     string
	Deadline  time.Duration // 0 = unbounded
	TotalTime time.Duration
	Accuracy  float64
	MeanDrops float64 // average clients dropped per round
}

// DeadlineSweep reproduces the Figure 1(b)/(c) experiment: FedAvg with
// per-round deadlines at fractions of the unbounded round duration, on
// non-IID data when nonIID is true.
func DeadlineSweep(opt Options, nonIID bool) ([]DeadlinePoint, error) {
	run := func(o Options, strat fl.Strategy) (*fl.Results, error) {
		cfg, err := o.baseConfig(dataset.MNIST, strat)
		if err != nil {
			return nil, err
		}
		if nonIID {
			cfg.NonIIDClasses = 3
		}
		return fl.Run(cfg)
	}
	base, err := runEach(opt, []fl.Strategy{fl.NewFedAvg(0)}, run)
	if err != nil {
		return nil, fmt.Errorf("deadline baseline: %w", err)
	}
	unbounded := base[0].MeanRoundDuration()
	points := []DeadlinePoint{{
		Label:     "inf",
		TotalTime: base[0].TotalTime,
		Accuracy:  base[0].FinalAccuracy,
	}}
	type fraction struct {
		label string
		frac  float64
	}
	fractions := []fraction{
		{"0.8x", 0.8}, {"0.6x", 0.6}, {"0.4x", 0.4}, {"0.15x", 0.15},
	}
	if opt.Quick {
		fractions = fractions[1:3]
	}
	cut, err := runEach(opt, fractions, func(o Options, f fraction) (DeadlinePoint, error) {
		d := time.Duration(float64(unbounded) * f.frac)
		res, err := run(o, fl.NewDeadlineFedAvg(0, d))
		if err != nil {
			return DeadlinePoint{}, fmt.Errorf("deadline %s: %w", f.label, err)
		}
		var drops float64
		for _, r := range res.Rounds {
			drops += float64(o.scale().clients - r.Completed)
		}
		drops /= float64(len(res.Rounds))
		return DeadlinePoint{
			Label:     f.label,
			Deadline:  d,
			TotalTime: res.TotalTime,
			Accuracy:  res.FinalAccuracy,
			MeanDrops: drops,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return append(points, cut...), nil
}

func collectFig1b(opt Options) ([]DeadlinePoint, error) { return DeadlineSweep(opt, false) }

func renderFig1b(points []DeadlinePoint, w io.Writer) error {
	tbl := metrics.NewTable("deadline", "total-time", "dropped/round")
	for _, p := range points {
		tbl.AddRow(p.Label, p.TotalTime, p.MeanDrops)
	}
	fmt.Fprintln(w, "Figure 1(b): total training duration with per-round deadlines")
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

func collectFig1c(opt Options) ([]DeadlinePoint, error) { return DeadlineSweep(opt, true) }

func renderFig1c(points []DeadlinePoint, w io.Writer) error {
	tbl := metrics.NewTable("deadline", "test-accuracy", "dropped/round")
	for _, p := range points {
		tbl.AddRow(p.Label, p.Accuracy, p.MeanDrops)
	}
	fmt.Fprintln(w, "Figure 1(c): accuracy under deadlines (non-IID)")
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

// ---------------------------------------------------------------------------
// Figure 4: per-phase time share of the training cycle.

// PhaseShare is one bar group of Figure 4.
type PhaseShare struct {
	Arch nn.Arch
	FF   float64
	FC   float64
	BC   float64
	BF   float64
}

// Fig4 profiles the four update phases of the paper's five dataset/network
// combinations.
func Fig4(Options) ([]PhaseShare, error) {
	archs := []nn.Arch{
		nn.ArchCifar10CNN, nn.ArchCifar10ResNet, nn.ArchCifar100VGG,
		nn.ArchCifar100ResNet, nn.ArchFMNISTCNN,
	}
	out := make([]PhaseShare, 0, len(archs))
	for _, a := range archs {
		cost, err := a.PhaseFLOPs()
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", a, err)
		}
		ff, fc, bc, bf := cost.Shares()
		out = append(out, PhaseShare{Arch: a, FF: ff, FC: fc, BC: bc, BF: bf})
	}
	return out, nil
}

func renderFig4(shares []PhaseShare, w io.Writer) error {
	tbl := metrics.NewTable("network", "ff%", "fc%", "bc%", "bf%")
	for _, s := range shares {
		tbl.AddRow(s.Arch.String(), 100*s.FF, 100*s.FC, 100*s.BC, 100*s.BF)
	}
	fmt.Fprintln(w, "Figure 4: share of each update phase (bf dominates, 52-75% in the paper)")
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

// ---------------------------------------------------------------------------
// Figures 6 and 7: accuracy and training time across the main grid.

// GridCell is one (dataset, strategy) cell of Figures 6/7.
type GridCell struct {
	Dataset   dataset.Kind
	Strategy  string
	Accuracy  float64
	TotalTime time.Duration
	Offloads  int
}

// MainGrid runs the five-strategy comparison over the three datasets,
// IID or non-IID(3) as in §5.2.
func MainGrid(opt Options, nonIID bool) ([]GridCell, error) {
	kinds := []dataset.Kind{dataset.MNIST, dataset.FMNIST, dataset.Cifar10}
	if opt.Quick {
		kinds = []dataset.Kind{dataset.MNIST, dataset.FMNIST}
	}
	type cell struct {
		kind  dataset.Kind
		strat fl.Strategy
	}
	var cells []cell
	for _, kind := range kinds {
		for _, strat := range strategies(0) {
			cells = append(cells, cell{kind, strat})
		}
	}
	return runEach(opt, cells, func(o Options, c cell) (GridCell, error) {
		cfg, err := o.baseConfig(c.kind, c.strat)
		if err != nil {
			return GridCell{}, err
		}
		if nonIID {
			cfg.NonIIDClasses = 3
		}
		res, err := fl.Run(cfg)
		if err != nil {
			return GridCell{}, fmt.Errorf("grid %s/%s: %w", c.kind, c.strat.Name(), err)
		}
		return GridCell{
			Dataset:   c.kind,
			Strategy:  res.Strategy,
			Accuracy:  res.FinalAccuracy,
			TotalTime: res.TotalTime,
			Offloads:  res.TotalOffloads(),
		}, nil
	})
}

func printGrid(w io.Writer, title string, cells []GridCell) error {
	tbl := metrics.NewTable("dataset", "strategy", "accuracy", "total-time", "offloads")
	for _, c := range cells {
		tbl.AddRow(c.Dataset.String(), c.Strategy, c.Accuracy, c.TotalTime, c.Offloads)
	}
	fmt.Fprintln(w, title)
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

func collectFig6(opt Options) ([]GridCell, error) { return MainGrid(opt, false) }

func renderFig6(cells []GridCell, w io.Writer) error {
	return printGrid(w, "Figure 6: IID accuracy and training time (5 strategies)", cells)
}

func collectFig7(opt Options) ([]GridCell, error) { return MainGrid(opt, true) }

func renderFig7(cells []GridCell, w io.Writer) error {
	return printGrid(w, "Figure 7: non-IID accuracy and training time (5 strategies)", cells)
}

// ---------------------------------------------------------------------------
// Figure 8: density of round durations (FMNIST).

// DensitySeries is one strategy's round-duration density.
type DensitySeries struct {
	Strategy string
	Mean     time.Duration
	Peak     float64 // seconds
	Density  metrics.Density
}

// Fig8 collects per-round durations for every strategy on FMNIST and
// estimates their densities.
func Fig8(opt Options) ([]DensitySeries, error) {
	return runEach(opt, strategies(0), func(o Options, strat fl.Strategy) (DensitySeries, error) {
		cfg, err := o.baseConfig(dataset.FMNIST, strat)
		if err != nil {
			return DensitySeries{}, err
		}
		cfg.NonIIDClasses = 3
		cfg.EvalEvery = 1000 // timing-only experiment
		if !o.Quick {
			cfg.Rounds = 40
		}
		res, err := fl.Run(cfg)
		if err != nil {
			return DensitySeries{}, fmt.Errorf("fig8 %s: %w", strat.Name(), err)
		}
		secs := metrics.DurationsToSeconds(res.RoundDurations())
		den, err := metrics.EstimateDensity(secs, 64, 0)
		if err != nil {
			return DensitySeries{}, fmt.Errorf("fig8 %s density: %w", strat.Name(), err)
		}
		return DensitySeries{
			Strategy: res.Strategy,
			Mean:     res.MeanRoundDuration(),
			Peak:     den.Peak(),
			Density:  den,
		}, nil
	})
}

func renderFig8(series []DensitySeries, w io.Writer) error {
	fmt.Fprintln(w, "Figure 8: density of round durations (FMNIST, non-IID)")
	tbl := metrics.NewTable("strategy", "mean-round", "density-peak(s)", "density")
	for _, s := range series {
		tbl.AddRow(s.Strategy, s.Mean, s.Peak, metrics.Sparkline(s.Density.Ys))
	}
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

// ---------------------------------------------------------------------------
// Figure 9: similarity factor sensitivity.

// SimilarityPoint is one similarity-factor setting of Figures 9(a)/9(b).
type SimilarityPoint struct {
	Factor        float64
	Accuracy      float64
	MeanRoundTime time.Duration
}

// Fig9 sweeps the similarity factor f on FMNIST with a per-round client
// subset, as in §5.3 (24 clients, 3 selected per round).
func Fig9(opt Options) ([]SimilarityPoint, error) {
	factors := []float64{1, 0.75, 0.5, 0.25, 0}
	if opt.Quick {
		factors = []float64{1, 0.5, 0}
	}
	s := opt.scale()
	// The paper's §5.3 setup selects 3 of 24 clients per round; keep at
	// least 3 so the similarity term has alternatives to choose between.
	participants := s.clients / 4
	if participants < 3 {
		participants = 3
	}
	return runEach(opt, factors, func(o Options, f float64) (SimilarityPoint, error) {
		cfg, err := o.baseConfig(dataset.FMNIST, fl.NewAergia(participants, f))
		if err != nil {
			return SimilarityPoint{}, err
		}
		cfg.NonIIDClasses = 3
		res, err := fl.Run(cfg)
		if err != nil {
			return SimilarityPoint{}, fmt.Errorf("fig9 f=%v: %w", f, err)
		}
		return SimilarityPoint{
			Factor:        f,
			Accuracy:      res.FinalAccuracy,
			MeanRoundTime: res.MeanRoundDuration(),
		}, nil
	})
}

func renderFig9(points []SimilarityPoint, w io.Writer) error {
	tbl := metrics.NewTable("similarity-factor", "test-accuracy", "mean-round-time")
	for _, p := range points {
		tbl.AddRow(p.Factor, p.Accuracy, p.MeanRoundTime)
	}
	fmt.Fprintln(w, "Figure 9: impact of the similarity factor f on accuracy (a) and round time (b)")
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

// ---------------------------------------------------------------------------
// Figure 10: degree of non-IIDness.

// NonIIDSeries is one non-IID level of Figure 10.
type NonIIDSeries struct {
	Label    string
	Times    []time.Duration
	Accuracy []float64
	Final    float64
	Total    time.Duration
}

// Fig10 trains Aergia under IID, non-IID(10), non-IID(5), and non-IID(2)
// and reports accuracy over time.
func Fig10(opt Options) ([]NonIIDSeries, error) {
	type level struct {
		label   string
		classes int
	}
	levels := []level{
		{"IID", 0}, {"non-IID(10)", 10}, {"non-IID(5)", 5}, {"non-IID(2)", 2},
	}
	if opt.Quick {
		levels = levels[:3]
	}
	return runEach(opt, levels, func(o Options, lvl level) (NonIIDSeries, error) {
		cfg, err := o.baseConfig(dataset.FMNIST, fl.NewAergia(0, 1))
		if err != nil {
			return NonIIDSeries{}, err
		}
		cfg.NonIIDClasses = lvl.classes
		cfg.EvalEvery = 1
		res, err := fl.Run(cfg)
		if err != nil {
			return NonIIDSeries{}, fmt.Errorf("fig10 %s: %w", lvl.label, err)
		}
		times, accs := res.AccuracyOverTime()
		return NonIIDSeries{
			Label:    lvl.label,
			Times:    times,
			Accuracy: accs,
			Final:    res.FinalAccuracy,
			Total:    res.TotalTime,
		}, nil
	})
}

func renderFig10(series []NonIIDSeries, w io.Writer) error {
	fmt.Fprintln(w, "Figure 10: accuracy over time by degree of non-IIDness (Aergia)")
	tbl := metrics.NewTable("level", "final-accuracy", "total-time", "accuracy-curve")
	for _, s := range series {
		tbl.AddRow(s.Label, s.Final, s.Total, metrics.Sparkline(s.Accuracy))
	}
	_, err := fmt.Fprint(w, tbl.String())
	return err
}

// ---------------------------------------------------------------------------
// Table 1: qualitative comparison.

// Table1Rows returns the qualitative comparison rows of Table 1.
func Table1Rows(Options) ([]string, error) {
	return fl.Table1(strategies(0)), nil
}

func renderTable1(rows []string, w io.Writer) error {
	fmt.Fprintln(w, "Table 1: FL solutions for heterogeneous settings")
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
	return nil
}
