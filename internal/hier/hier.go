// Package hier is the scale-out subsystem of the federation: per-round
// client sampling and two-tier hierarchical aggregation, the machinery that
// lets one process simulate 100k+ clients (DESIGN.md §11).
//
// Three mechanisms compose:
//
//   - A seed-derived Sampler picks each round's cohort as a pure function
//     of (seed, round, client), so every tier of the hierarchy — and every
//     process of a distributed deployment — computes the same cohort
//     without coordination messages.
//   - LazyClient shells stand in for unsampled clients: an actor the size
//     of its Profile (speed/skew metadata), built from the seed when the
//     transport first addresses the client (the population is one ranged
//     registration, comm.RangeRegistry) and hydrated into a full client
//     only when a dispatch first reaches it. Memory follows the cohort,
//     not the population.
//   - Route, an interceptor on the comm stack over any comm.Transport,
//     rewrites client uplink sends to the edge aggregator that owns the
//     client (a stable hash of the actor ID, dvactor-style
//     location-transparent routing), so the root federator sees tens of
//     children instead of N clients. Because routing is a transport
//     concern, a tier can live in-process (sim) or across processes (rpc)
//     without the actors changing.
//
// The zero Options value keeps the flat everyone-participates topology
// bit-identical to the pre-hier code path; fl.Topology.Build only diverts
// to the hierarchical build when Options.Enabled reports true.
package hier

import (
	"fmt"

	"aergia/internal/comm"
)

// Options selects the scale-out behavior of a run. The zero value — and
// Sample 1.0 with 0 tiers, which Normalized collapses to it — is the flat
// single-tier topology where every client participates in every round,
// byte-identical in records and bit-identical in results to the pre-hier
// code path.
type Options struct {
	// Sample is the per-round cohort fraction in [0,1]: each round an
	// expected Sample fraction of the clients is selected by the
	// deterministic sampler (at least one per edge). 0 and 1 both mean
	// "everyone, every round" and normalize to 0.
	Sample float64 `json:"sample,omitempty"`
	// Tiers is the number of edge aggregators inserted between the clients
	// and the root federator. Each edge owns a stable hash-assigned cohort
	// of clients, combines their updates locally, and ships one aggregate
	// delta upstream. 0 keeps the flat topology.
	Tiers int `json:"tiers,omitempty"`
}

// Enabled reports whether the options select the hierarchical build path.
// It assumes a normalized value (Sample 1.0 collapses to 0 first).
func (o Options) Enabled() bool { return o.Tiers > 0 || o.Sample > 0 }

// IsZero reports whether the options are the flat default; the zero value
// is omitted from JSON encodings entirely (omitzero), keeping pre-hier
// records byte-identical. It has a pointer receiver for the reason
// chaos.Plan.IsZero has.
func (o *Options) IsZero() bool { return *o == Options{} }

// Normalized validates the options and collapses the redundant encodings:
// Sample 1.0 means the same run as Sample 0 (everyone participates), so
// only 0 may reach record encodings and dedup keys.
func (o Options) Normalized() (Options, error) {
	if o.Sample < 0 || o.Sample > 1 {
		return Options{}, fmt.Errorf("hier: sampling fraction %v outside [0,1]", o.Sample)
	}
	if o.Tiers < 0 {
		return Options{}, fmt.Errorf("hier: %d edge tiers", o.Tiers)
	}
	if o.Sample == 1 {
		o.Sample = 0
	}
	return o, nil
}

// EdgeID returns the NodeID of edge aggregator k. Edges live in the
// negative ID space below the federator (client IDs are non-negative,
// comm.FederatorID is -1), so they can register on any transport without
// colliding with either.
func EdgeID(k int) comm.NodeID { return comm.NodeID(-2 - k) }

// IsEdge reports whether id names an edge aggregator.
func IsEdge(id comm.NodeID) bool { return id <= -2 }

// Assign maps a client to the edge tier that owns it: a stable seed-derived
// hash of the actor ID, so every process of a deployment computes the same
// ownership without a membership exchange, and adding clients never moves
// existing ones between edges under the same seed and tier count.
func Assign(seed uint64, id comm.NodeID, tiers int) int {
	if tiers <= 1 {
		return 0
	}
	return int(mix(seed^0xed6e5a1ed, uint64(id)) % uint64(tiers))
}

// mix is a splitmix64-style stateless hash: the same construction the
// chaos plan uses to expand per-node fates, chosen so a single (seed,
// value) pair deterministically yields a well-distributed 64-bit stream.
func mix(seed, v uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*(v+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
