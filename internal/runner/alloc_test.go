package runner

import (
	"encoding/json"
	"slices"
	"testing"

	"aergia/internal/chaos"
	"aergia/internal/experiments"
	"aergia/internal/hier"
	"aergia/internal/race"
)

// idSink keeps the IDs the pins compute live.
var idSink string

// TestStoreAppendAllocatesNothing pins what writing a record costs once
// the index has room for it: nothing. The store encodes the line through
// a pointer into its own scratch record and buffer, so json's omitzero
// checks box no copy of the options and the line is not copied out of the
// encoder. json.Marshal of the record by value allocated 4 times a record.
func TestStoreAppendAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's own allocations are not the program's")
	}
	const runs = 100
	recs := make([]Record, runs+1) // AllocsPerRun warms up with one more
	for i := range recs {
		j := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: uint64(i + 1), Codec: "q8",
			Chaos: chaos.Plan{Churn: 0.25}, Hier: hier.Options{Tiers: 2}})
		recs[i] = Record{ID: j.ID(), Experiment: j.Experiment, Options: j.Options, Status: StatusDone,
			Elapsed: 7, Worker: "1:w1", Result: json.RawMessage(`{"experiment":"fig4","data":[1,2]}`)}
	}
	s, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Grow the index as a long-running store's already is: the table has
	// room for every record, and so has the entry slice.
	s.byID = make([]uint32, 256)
	s.entries = slices.Grow(s.entries, len(recs))
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		if err := s.append(recs[next], 1); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if n != 0 {
		t.Errorf("Store.append allocates %v times a record, want 0", n)
	}
	if s.Len() != len(recs) {
		t.Fatalf("the store indexes %d records, want %d", s.Len(), len(recs))
	}
	indexMatchesFile(t, s, s.Path())
}

// TestJobIDAllocations pins what a job's ID costs: nothing once NewJob
// has cached it, and at most 3 allocations the first time — the options
// copy the encoder is handed a pointer to, the encoding, and the ID
// string. Marshalling the options by value took 7.
func TestJobIDAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's own allocations are not the program's")
	}
	for _, opt := range []experiments.Options{
		{Quick: true, Seed: 7},
		{Quick: true, Seed: 7, Codec: "topk", Chaos: chaos.Plan{Churn: 0.5, Rejoin: 1}, Hier: hier.Options{Sample: 0.25, Tiers: 4}},
	} {
		cached := mustJob(t, "fig4", opt)
		if n := testing.AllocsPerRun(100, func() { idSink = cached.ID() }); n != 0 {
			t.Errorf("a cached Job.ID allocates %v times, want 0", n)
		}
		first := Job{Experiment: cached.Experiment, Options: cached.Options}
		if n := testing.AllocsPerRun(100, func() { idSink = first.ID() }); n > 3 {
			t.Errorf("a first Job.ID allocates %v times, want at most 3", n)
		}
		if first.ID() != cached.ID() {
			t.Fatalf("the ID reads %s uncached and %s cached", first.ID(), cached.ID())
		}
	}
}
