// Package chaos is the fault and churn subsystem: a seed-derived, fully
// deterministic fault schedule (client crashes, rejoins, transient compute
// spikes, lossy and laggy links) injected between the FL actors and any
// comm.Transport. The same Plan perturbs the virtual-time simulator and the
// real TCP transport through one interceptor (see Wrap), so resilience code is
// exercised identically in deterministic replay and in wall-clock
// deployments. DESIGN.md §7 documents the fault model and the determinism
// contract: same seed + same plan ⇒ identical trajectory on sim; tcp is
// best-effort (event times are wall-clock).
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Plan is the declarative fault schedule of one run. The zero value means
// "no faults" and every consumer (fl.Topology, experiments.Options, the
// -chaos flag) collapses it to the pre-chaos encoding, so fault-free runs
// keep their canonical records, dedup keys, and bit-identical trajectories.
//
// All probabilities are in [0,1]; all durations are virtual on the sim
// transport and wall-clock over TCP. Every random decision derives from
// (run seed, Plan.Seed, node/link identity) through stateless hashes, so a
// plan expands to the same fate set no matter how often or where it runs.
type Plan struct {
	// Churn is the fraction of clients that crash once during the run.
	Churn float64 `json:"churn,omitempty"`
	// Rejoin is the fraction of crashed clients that come back after Down.
	Rejoin float64 `json:"rejoin,omitempty"`
	// Window is the interval (0, Window] over which crash times are drawn;
	// 0 defaults to 1s when Churn > 0.
	Window time.Duration `json:"window,omitempty"`
	// Down is the downtime between a crash and its rejoin; 0 defaults to
	// Window/2 when Rejoin > 0.
	Down time.Duration `json:"down,omitempty"`
	// Drop is the per-message loss probability applied to every link.
	Drop float64 `json:"drop,omitempty"`
	// Delay is the maximum extra per-message link delay; each message draws
	// uniformly from [0, Delay].
	Delay time.Duration `json:"delay,omitempty"`
	// Spike is the compute-slowdown factor (>= 1) applied to spiking nodes.
	Spike float64 `json:"spike,omitempty"`
	// SpikeProb is the fraction of clients that suffer one slowdown spike.
	SpikeProb float64 `json:"spike_prob,omitempty"`
	// SpikeLen is the spike duration; 0 defaults to Window/2.
	SpikeLen time.Duration `json:"spike_len,omitempty"`
	// Quorum is the fraction of a round's selected updates the federator
	// must hold before a deadline may cut the round; 0 keeps the pure
	// deadline behavior (cut with whatever arrived).
	Quorum float64 `json:"quorum,omitempty"`
	// RoundTimeout is a fallback per-round deadline applied when the
	// strategy has none; it keeps rounds finite when messages are lost
	// (Drop > 0). 0 disables it.
	RoundTimeout time.Duration `json:"round_timeout,omitempty"`
	// Seed is extra entropy mixed with the run seed, so one topology seed
	// can be replayed under distinct fault schedules.
	Seed uint64 `json:"seed,omitempty"`
}

// IsZero reports whether the plan schedules no faults at all; encoding/json
// uses it for the omitzero collapse of experiments.Options.Chaos. The
// pointer receiver lets json call it on a field it reaches through a
// pointer without boxing a copy of the plan.
func (p *Plan) IsZero() bool { return *p == Plan{} }

// Validate rejects out-of-range fields with one error naming the field.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"churn", p.Churn}, {"rejoin", p.Rejoin}, {"drop", p.Drop},
		{"spike_prob", p.SpikeProb}, {"quorum", p.Quorum},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("chaos: %s %v outside [0,1]", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    time.Duration
	}{
		{"window", p.Window}, {"down", p.Down}, {"delay", p.Delay},
		{"spike_len", p.SpikeLen}, {"round_timeout", p.RoundTimeout},
	} {
		if f.v < 0 {
			return fmt.Errorf("chaos: negative %s %v", f.name, f.v)
		}
	}
	if p.Spike != 0 && p.Spike < 1 {
		return fmt.Errorf("chaos: spike factor %v below 1 (spikes slow nodes down)", p.Spike)
	}
	return nil
}

// Normalized validates the plan and resolves the documented defaults
// (Window 1s, Down Window/2, Spike 2, SpikeLen Window/2) for the features
// the plan enables. A zero plan stays zero, so normalization cannot turn a
// fault-free run into a faulted one — and normalized plans are safe dedup
// keys: two plans that normalize equally schedule identical faults.
func (p Plan) Normalized() (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if p.IsZero() {
		return p, nil
	}
	if p.Window == 0 && (p.Churn > 0 || p.SpikeProb > 0) {
		p.Window = time.Second
	}
	if p.Down == 0 && p.Rejoin > 0 {
		p.Down = p.Window / 2
	}
	if p.Spike == 0 && p.SpikeProb > 0 {
		p.Spike = 2
	}
	if p.SpikeLen == 0 && p.SpikeProb > 0 {
		p.SpikeLen = p.Window / 2
	}
	return p, nil
}

// specKeys lists the -chaos spec keys in canonical order; String and
// ParseSpec share it so the round-trip is exact.
var specKeys = []string{
	"churn", "rejoin", "window", "down", "drop", "delay",
	"spike", "spike_prob", "spike_len", "quorum", "round_timeout", "seed",
}

// SpecKeys returns the accepted -chaos spec keys (for error messages and
// usage strings).
func SpecKeys() string { return strings.Join(specKeys, ", ") }

// ParseSpec parses the compact "key=value,..." form the -chaos flag takes,
// e.g. "churn=0.3,rejoin=1,window=2s,quorum=0.5". Unknown keys are errors;
// an empty spec is the zero plan.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(field, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || val == "" {
			return Plan{}, fmt.Errorf("chaos: spec field %q is not key=value (keys: %s)", field, SpecKeys())
		}
		var err error
		switch key {
		case "churn":
			p.Churn, err = strconv.ParseFloat(val, 64)
		case "rejoin":
			p.Rejoin, err = strconv.ParseFloat(val, 64)
		case "window":
			p.Window, err = time.ParseDuration(val)
		case "down":
			p.Down, err = time.ParseDuration(val)
		case "drop":
			p.Drop, err = strconv.ParseFloat(val, 64)
		case "delay":
			p.Delay, err = time.ParseDuration(val)
		case "spike":
			p.Spike, err = strconv.ParseFloat(val, 64)
		case "spike_prob":
			p.SpikeProb, err = strconv.ParseFloat(val, 64)
		case "spike_len":
			p.SpikeLen, err = time.ParseDuration(val)
		case "quorum":
			p.Quorum, err = strconv.ParseFloat(val, 64)
		case "round_timeout":
			p.RoundTimeout, err = time.ParseDuration(val)
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return Plan{}, fmt.Errorf("chaos: unknown spec key %q (keys: %s)", key, SpecKeys())
		}
		if err != nil {
			return Plan{}, fmt.Errorf("chaos: spec %s=%q: %w", key, val, err)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// String renders the plan in the canonical spec form ParseSpec accepts;
// zero-valued fields are omitted and the zero plan renders empty.
func (p Plan) String() string {
	fields := map[string]string{}
	addF := func(k string, v float64) {
		if v != 0 {
			fields[k] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	addD := func(k string, v time.Duration) {
		if v != 0 {
			fields[k] = v.String()
		}
	}
	addF("churn", p.Churn)
	addF("rejoin", p.Rejoin)
	addD("window", p.Window)
	addD("down", p.Down)
	addF("drop", p.Drop)
	addD("delay", p.Delay)
	addF("spike", p.Spike)
	addF("spike_prob", p.SpikeProb)
	addD("spike_len", p.SpikeLen)
	addF("quorum", p.Quorum)
	addD("round_timeout", p.RoundTimeout)
	if p.Seed != 0 {
		fields["seed"] = strconv.FormatUint(p.Seed, 10)
	}
	parts := make([]string, 0, len(fields))
	for _, k := range specKeys {
		if v, ok := fields[k]; ok {
			parts = append(parts, k+"="+v)
		}
	}
	return strings.Join(parts, ",")
}
