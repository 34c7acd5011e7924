package runner

import (
	"fmt"

	"aergia/internal/chaos"
	"aergia/internal/experiments"
	"aergia/internal/hier"
)

// Sweep is a parameter grid over the experiment options. Expand takes the
// cartesian product of every axis; an empty axis means "the default only"
// (seed 1, serial backend, full scale, no faults), so the
// minimal sweep {"experiments": ["fig6"]} is one job.
type Sweep struct {
	Experiments []string `json:"experiments"`
	Seeds       []uint64 `json:"seeds,omitempty"`
	Backends    []string `json:"backends,omitempty"`
	Quick       []bool   `json:"quick,omitempty"`
	// Chaos lists fault schedules in the -chaos spec form (e.g.
	// "churn=0.3,rejoin=1,window=2s"); "" is the fault-free run. Churn
	// sweeps grid over it like any other axis.
	Chaos []string `json:"chaos,omitempty"`
	// Codecs lists wire codecs ("none", "q8", "topk"); "" is the raw
	// default. Bandwidth sweeps grid over it like any other axis.
	Codecs []string `json:"codecs,omitempty"`
	// Samples lists per-round client sampling fractions in [0, 1]; 0 (and
	// the inert 1.0) is the flat everyone-participates run. Scale-out
	// sweeps grid over it like any other axis (internal/hier).
	Samples []float64 `json:"samples,omitempty"`
	// Tiers lists edge-aggregator counts; 0 is the flat two-level
	// topology. Scale-out sweeps grid over it like any other axis.
	Tiers []int `json:"tiers,omitempty"`
}

// presizeMax bounds how many cells Expand sizes its slice and set for.
const presizeMax = 1 << 16

// Expand materializes the grid as jobs, validating every cell. Cells that
// normalize to the same job (for example backends "serial" and its alias
// "parallel") are deduplicated, keeping the first.
func (s Sweep) Expand() ([]Job, error) {
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("runner: sweep has no experiments")
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	backends := s.Backends
	if len(backends) == 0 {
		backends = []string{""}
	}
	quicks := s.Quick
	if len(quicks) == 0 {
		quicks = []bool{false}
	}
	chaosSpecs := s.Chaos
	if len(chaosSpecs) == 0 {
		chaosSpecs = []string{""}
	}
	codecs := s.Codecs
	if len(codecs) == 0 {
		codecs = []string{""}
	}
	samples := s.Samples
	if len(samples) == 0 {
		samples = []float64{0}
	}
	tiers := s.Tiers
	if len(tiers) == 0 {
		tiers = []int{0}
	}
	plans := make([]chaos.Plan, len(chaosSpecs))
	for i, spec := range chaosSpecs {
		plan, err := chaos.ParseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("runner: sweep chaos[%d]: %w", i, err)
		}
		plans[i] = plan
	}
	// Sized to the grid, but to no more than presizeMax cells before any
	// has validated: a body of long axes must not reserve memory it then
	// refuses.
	cells := 1
	for _, n := range []int{len(s.Experiments), len(quicks), len(seeds), len(backends),
		len(plans), len(codecs), len(samples), len(tiers)} {
		cells = min(cells*n, presizeMax)
	}
	jobs := make([]Job, 0, cells)
	seen := make(map[string]bool, cells)
	for _, exp := range s.Experiments {
		for _, quick := range quicks {
			for _, seed := range seeds {
				for _, backend := range backends {
					for _, plan := range plans {
						for _, wireCodec := range codecs {
							for _, sample := range samples {
								for _, tier := range tiers {
									job, err := NewJob(exp, experiments.Options{
										Quick:   quick,
										Seed:    seed,
										Backend: backend,
										Chaos:   plan,
										Codec:   wireCodec,
										Hier:    hier.Options{Sample: sample, Tiers: tier},
									})
									if err != nil {
										return nil, err
									}
									if id := job.ID(); !seen[id] {
										seen[id] = true
										jobs = append(jobs, job)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return jobs, nil
}
