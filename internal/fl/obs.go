package fl

import (
	"sync"

	"aergia/internal/obs"
)

// flInstruments is the always-on metric surface of the FL engines,
// registered on obs.Default. Registration is lazy (first run or first
// bandwidth count) and idempotent; every instrument is a single atomic on
// the hot path, so instrumented runs stay bit-identical to the goldens.
type flInstruments struct {
	// Bandwidth ledger mirror: live per-send bytes by traffic class, the
	// scrape-time view of fl.Bandwidth.
	bwDispatch *obs.Counter
	bwUpdate   *obs.Counter
	bwOffload  *obs.Counter
	bwResult   *obs.Counter
	bwControl  *obs.Counter

	// Sync federator.
	rounds        *obs.Counter
	roundDur      *obs.Histogram
	stragglerWait *obs.Histogram
	offloads      *obs.Counter
	reassigned    *obs.Counter

	// Async federator.
	asyncUpdates *obs.Counter
	staleness    *obs.Histogram
	redispatch   *obs.Counter
}

var flm = sync.OnceValue(func() *flInstruments {
	reg := obs.Default
	bw := reg.CounterVec("aergia_bandwidth_bytes_total",
		"On-the-wire bytes by traffic class, as charged by the transports (live view of the run bandwidth ledger).",
		"class")
	return &flInstruments{
		bwDispatch: bw.With("dispatch"),
		bwUpdate:   bw.With("update"),
		bwOffload:  bw.With("offload"),
		bwResult:   bw.With("result"),
		bwControl:  bw.With("control"),

		rounds: reg.Counter("aergia_rounds_total",
			"Completed synchronous rounds across all runs in this process."),
		roundDur: reg.Histogram("aergia_round_duration_seconds",
			"Synchronous round duration in the run's own clock (virtual seconds on the simulator, wall seconds on TCP).",
			nil),
		stragglerWait: reg.Histogram("aergia_straggler_wait_seconds",
			"Time the federator waited between the round's first update and its completion — the straggler tail the paper's offloading attacks.",
			nil),
		offloads: reg.Counter("aergia_offloads_total",
			"Offload pairs scheduled by the synchronous federator."),
		reassigned: reg.Counter("aergia_offload_reassigned_total",
			"Offload pairs repointed at a new helper after the strong client crashed."),

		asyncUpdates: reg.Counter("aergia_async_updates_total",
			"Client updates absorbed by the asynchronous federator."),
		staleness: reg.Histogram("aergia_async_staleness",
			"Staleness (model versions behind) of absorbed asynchronous updates.",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64}),
		redispatch: reg.Counter("aergia_async_redispatch_total",
			"Watchdog re-dispatches to silent clients on lossy async runs."),
	}
})
