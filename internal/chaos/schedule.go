package chaos

import (
	"sort"
	"time"

	"aergia/internal/comm"
	"aergia/internal/tensor"
)

// Fate is the expanded fault timeline of one node: at most one crash (with
// an optional rejoin) and at most one compute spike. Times are offsets from
// the transport's Seal — virtual on the simulator, wall-clock over TCP.
type Fate struct {
	Node comm.NodeID
	// Crashes and CrashAt describe the crash event.
	Crashes bool
	CrashAt time.Duration
	// Rejoins and RejoinAt describe the optional rejoin.
	Rejoins  bool
	RejoinAt time.Duration
	// SpikeFactor > 1 slows the node's compute by that factor during
	// [SpikeStart, SpikeEnd).
	SpikeFactor          float64
	SpikeStart, SpikeEnd time.Duration
}

// nodeStream derives the per-node decision stream. Each node's draws are an
// independent function of (run seed, plan seed, node), so fates do not
// depend on expansion order or cluster size.
func (p Plan) nodeStream(seed uint64, node comm.NodeID) *tensor.RNG {
	mixed := seed ^ (p.Seed+1)*0x9e3779b97f4a7c15 ^ (uint64(node)+2)*0xbf58476d1ce4e5b9
	return tensor.NewRNG(mixed)
}

// Expand materializes the plan into per-node fates for the given client
// nodes. The plan must be normalized; Expand is deterministic in
// (seed, plan, nodes) and independent of call order. The federator is never
// faulted — callers pass client IDs only.
func (p Plan) Expand(seed uint64, nodes []comm.NodeID) []Fate {
	if p.IsZero() {
		return nil
	}
	sorted := append([]comm.NodeID(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var fates []Fate
	for _, node := range sorted {
		if f := p.fate(seed, node); f.Crashes || f.SpikeFactor > 1 {
			fates = append(fates, f)
		}
	}
	return fates
}

// fate is one client node's fate, a pure function of (seed, plan, node):
// what Expand lists for the node when it crashes or spikes, and otherwise
// a fate with neither.
func (p Plan) fate(seed uint64, node comm.NodeID) Fate {
	rng := p.nodeStream(seed, node)
	f := Fate{Node: node, SpikeFactor: 1}
	// Fixed draw sequence per node: crash roll, crash time, rejoin roll,
	// spike roll, spike start. Drawing unconditionally keeps a node's fate
	// stable when only thresholds change between plans.
	crashRoll := rng.Float64()
	crashFrac := rng.Float64()
	rejoinRoll := rng.Float64()
	spikeRoll := rng.Float64()
	spikeFrac := rng.Float64()
	if p.Churn > 0 && crashRoll < p.Churn {
		f.Crashes = true
		// Keep crash times strictly positive so a node is never down before
		// the federator's round 0 dispatch is scheduled.
		f.CrashAt = time.Duration((0.05 + 0.95*crashFrac) * float64(p.Window))
		if f.CrashAt <= 0 {
			f.CrashAt = 1
		}
		if p.Rejoin > 0 && rejoinRoll < p.Rejoin {
			f.Rejoins = true
			f.RejoinAt = f.CrashAt + p.Down
		}
	}
	if p.SpikeProb > 0 && spikeRoll < p.SpikeProb {
		f.SpikeFactor = p.Spike
		f.SpikeStart = time.Duration(spikeFrac * float64(p.Window))
		f.SpikeEnd = f.SpikeStart + p.SpikeLen
	}
	return f
}
