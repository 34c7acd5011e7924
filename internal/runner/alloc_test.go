package runner

import (
	"encoding/binary"
	"encoding/json"
	"runtime"
	"testing"
	"unsafe"

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
	// room for every record. The first record, AllocsPerRun's warm-up,
	// makes the page that holds them all.
	s.byID = make([]uint32, 256)
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

// TestLeaseCycleAllocations pins what one job costs the runner from
// admission to its record in the store, by count: Submit → Lease(owner, 1)
// → Complete on a runner with no local slots. The job is held once, in
// its live state, which its lease lives on and its grant points at; a
// separate lease and a copy of the job for each of them took 4.
func TestLeaseCycleAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's own allocations are not the program's")
	}
	s, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := New(s, -1)
	defer r.Close()
	const runs = 200
	jobs := make([]Job, runs+1) // AllocsPerRun warms up with one more
	for i := range jobs {
		jobs[i] = mustJob(t, "table1", experiments.Options{Quick: true, Seed: uint64(i + 1)})
	}
	result := json.RawMessage(`{"experiment":"table1"}`)
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		if _, err := r.Submit(jobs[next]); err != nil {
			t.Fatal(err)
		}
		next++
		l := r.Lease("1:w1", 1)
		if err := r.Complete(l[0].Job.ID(), l[0].Seq, Record{Status: StatusDone, Elapsed: 1, Result: result}); err != nil {
			t.Fatal(err)
		}
	})
	// The live job and the grant's one-element slice. An emptied queue
	// keeps its small ring, so the next job does not make one.
	t.Logf("%v allocations a cycle", n)
	if n > 2 {
		t.Errorf("a Submit, Lease, Complete cycle allocates %v times, want at most 2", n)
	}
	if got := r.Counts()[StatusDone]; got != len(jobs) {
		t.Fatalf("%d jobs done, want %d", got, len(jobs))
	}
}

// TestStoreIndexAllocatesItsSize pins the bytes 60000 records allocate in
// the index's entries: about their final size, less than a page over it.
// Grown by append, one slice of them allocated 4.7 times its final size
// on the way, copying itself at each growth. The table byID doubles as it
// fills, and is counted apart.
func TestStoreIndexAllocatesItsSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's own allocations are not the program's")
	}
	const n = 60000
	ids := make([]string, n)
	for i := range ids {
		var k idKey
		k.experiment = "table1"
		binary.BigEndian.PutUint64(k.digest[4:], uint64(i+1))
		ids[i] = k.String()
	}
	s, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tableBefore := len(s.byID)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.mu.Lock()
	for i, id := range ids {
		s.remember(Record{ID: id, Experiment: "table1", Options: experiments.Options{Quick: true, Seed: uint64(i + 1)},
			Status: StatusDone, Elapsed: 1}, int64(100*i), 99, 0)
	}
	s.mu.Unlock()
	runtime.ReadMemStats(&after)
	// The tables byID grew through: twice its length before up to its length now.
	table := 0
	for size := 2 * tableBefore; size <= len(s.byID); size *= 2 {
		table += 4 * size
	}
	got := int(after.TotalAlloc-before.TotalAlloc) - table
	size := n * int(unsafe.Sizeof(storedRecord{}))
	t.Logf("%d records allocate %d B of entries, %.2f times their %d B", n, got, float64(got)/float64(size), size)
	if limit := size + pageLen*int(unsafe.Sizeof(storedRecord{})) + 4<<10; got > limit {
		t.Errorf("%d records allocate %d B of entries, want at most %d: their size and a page", n, got, limit)
	}
	if s.Len() != n {
		t.Fatalf("the store indexes %d records, want %d", s.Len(), n)
	}
}
