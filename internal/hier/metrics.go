package hier

import (
	"sync"

	"aergia/internal/obs"
)

// hierInstruments is the scale-out metric surface, registered on
// obs.Default with the same lazy idempotent pattern as the FL engines: the
// cost of a 100k-client topology is visible live — how many shells actually
// materialized, how big the cohorts run, and how the update traffic splits
// between the client→edge and edge→root tiers.
type hierInstruments struct {
	hydrations *obs.Counter
	parked     *obs.Counter
	rejoined   *obs.Counter
	cohortSize *obs.Histogram
	edgeBytes  *obs.Counter
	rootBytes  *obs.Counter
}

var hm = sync.OnceValue(func() *hierInstruments {
	reg := obs.Default
	tier := reg.CounterVec("aergia_hier_update_bytes_total",
		"Model-update bytes by hierarchy tier (edge = client uplinks into edge aggregators, root = edge aggregate deltas into the federator).",
		"tier")
	dehydrations := reg.CounterVec("aergia_hier_dehydrations_total",
		"Hydrated clients dropped back to their shells, by cause: parked (a round ended cleanly and the client kept only its continuation) or rejoin (a chaos rejoin dropped the crashed incarnation).",
		"cause")
	return &hierInstruments{
		hydrations: reg.Counter("aergia_hier_hydrations_total",
			"Lazy client shells materialized into full actors by a training dispatch."),
		parked:   dehydrations.With("parked"),
		rejoined: dehydrations.With("rejoin"),
		cohortSize: reg.Histogram("aergia_hier_cohort_size",
			"Sampled cohort size per edge aggregator per round.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}),
		edgeBytes: tier.With("edge"),
		rootBytes: tier.With("root"),
	}
})

// ObserveCohort records one edge's sampled cohort size for a round.
func ObserveCohort(n int) { hm().cohortSize.Observe(float64(n)) }

// CountUpdateBytes attributes n update bytes to a hierarchy tier:
// "edge" for client→edge uplinks, "root" for edge→root aggregate deltas.
func CountUpdateBytes(tier string, n int) {
	switch tier {
	case "edge":
		hm().edgeBytes.Add(float64(n))
	case "root":
		hm().rootBytes.Add(float64(n))
	}
}
