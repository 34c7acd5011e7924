package experiments

import (
	"fmt"
	"io"
	"time"

	"aergia/internal/codec"
	"aergia/internal/dataset"
	"aergia/internal/fl"
	"aergia/internal/metrics"
)

// BandwidthCell is one (codec, strategy) cell of the fig-bandwidth study.
type BandwidthCell struct {
	// Codec is the wire codec of the run ("none" for the raw baseline).
	Codec string
	// Strategy is the FL algorithm.
	Strategy string
	// Accuracy is the final test accuracy.
	Accuracy float64
	// TotalTime is the full training duration (transfer delays scale with
	// encoded sizes on the sim transport's edge-grade links).
	TotalTime time.Duration
	// UpdateBytes is the model-update traffic the codec compresses:
	// client updates + offload shipments + feature returns.
	UpdateBytes int64
	// DispatchBytes is the raw global-model downlink (codec-independent).
	DispatchBytes int64
	// TotalBytes is all traffic, control messages included.
	TotalBytes int64
}

// bandwidthCodecs returns the codec axis of the study: the raw baseline
// plus every compressing codec (quick mode keeps the baseline and the most
// aggressive codec so the ratio signal survives the trim).
func bandwidthCodecs(quick bool) []string {
	if quick {
		return []string{codec.None, codec.TopK}
	}
	return []string{codec.None, codec.Q8, codec.TopK}
}

// FigBandwidth measures the bandwidth-vs-accuracy tradeoff of the wire
// codecs: total update bytes, training time, and final accuracy of Aergia
// and FedAvg on MNIST as the update payloads go from raw float64 through
// int8 quantization to top-k sparsification. Every run rides the
// edge-grade sim links of the main grid, so the byte reduction also shows
// up as time (transfer delay scales with encoded size). The cell's codec
// always replaces Options.Codec — the axis varies exactly one thing, and
// the "none" column is genuinely raw even when -codec was set.
func FigBandwidth(opt Options) ([]BandwidthCell, error) {
	kind := dataset.MNIST
	strategies := []fl.Strategy{fl.NewAergia(0, 1), fl.NewFedAvg(0)}
	type cell struct {
		codec string
		strat fl.Strategy
	}
	var cells []cell
	for _, codecName := range bandwidthCodecs(opt.Quick) {
		for _, strat := range strategies {
			cells = append(cells, cell{codecName, strat})
		}
	}
	return runEach(opt, cells, func(o Options, c cell) (BandwidthCell, error) {
		cfg, err := o.baseConfig(kind, c.strat)
		if err != nil {
			return BandwidthCell{}, err
		}
		cfg.Codec = c.codec
		res, err := fl.Run(cfg)
		if err != nil {
			return BandwidthCell{}, fmt.Errorf("fig-bandwidth %s/%s: %w", c.codec, c.strat.Name(), err)
		}
		return BandwidthCell{
			Codec:         c.codec,
			Strategy:      res.Strategy,
			Accuracy:      res.FinalAccuracy,
			TotalTime:     res.TotalTime,
			UpdateBytes:   res.Bandwidth.UpdateTraffic(),
			DispatchBytes: res.Bandwidth.DispatchBytes,
			TotalBytes:    res.Bandwidth.TotalBytes,
		}, nil
	})
}

func renderFigBandwidth(cells []BandwidthCell, w io.Writer) error {
	fmt.Fprintln(w, "Figure bandwidth: accuracy and wire bytes per codec (Aergia vs FedAvg)")
	// Per-strategy raw baselines anchor the compression-ratio column.
	baseline := map[string]int64{}
	for _, c := range cells {
		if c.Codec == codec.None {
			baseline[c.Strategy] = c.UpdateBytes
		}
	}
	tbl := metrics.NewTable("codec", "strategy", "accuracy", "total-time",
		"update-bytes", "dispatch-bytes", "update-compression")
	for _, c := range cells {
		ratio := "1.0x"
		if base := baseline[c.Strategy]; base > 0 && c.UpdateBytes > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(base)/float64(c.UpdateBytes))
		}
		tbl.AddRow(c.Codec, c.Strategy, c.Accuracy, c.TotalTime,
			c.UpdateBytes, c.DispatchBytes, ratio)
	}
	_, err := fmt.Fprint(w, tbl.String())
	return err
}
