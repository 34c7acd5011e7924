package fl

import (
	"sync"

	"aergia/internal/comm"
	"aergia/internal/obs"
)

// cohort is the one membership tracker of the coordinators (DESIGN.md §7):
// which nodes are down, and which members of the current round still owe an
// update. The round machine (round.go), which the sync federator and every
// edge aggregator embed, drives its rounds through it; the async federator
// keeps only its liveness view. Its fields are read directly and changed
// only by its methods.
type cohort struct {
	down map[comm.NodeID]bool // by the last liveness notice

	open    bool
	members []comm.NodeID // the current round's, in selection order
	state   map[comm.NodeID]standing
	owed    int // members neither delivered nor written off

	crashes, rejoins *obs.Counter // the liveness notices folded in; nil counts nothing
}

// standing is a member's place in the current round; zero means it owes an
// update. A written-off member (down at the open or crashed since) is lost
// to the round even if an update it had in flight is delivered.
type standing uint8

const (
	delivered standing = 1 << iota
	writtenOff
)

// livenessSeries is aergia_liveness_events_total's four series, created
// together so a scrape shows each from the first run on.
var livenessSeries = sync.OnceValue(func() map[string][2]*obs.Counter {
	v := obs.Default.CounterVec("aergia_liveness_events_total",
		"Client liveness transitions seen by the federator.",
		"event", "mode")
	return map[string][2]*obs.Counter{
		"sync":  {v.With("down", "sync"), v.With("rejoined", "sync")},
		"async": {v.With("down", "async"), v.With("rejoined", "async")},
	}
})

// newCohort returns an empty tracker counting its notices under mode
// ("sync" or "async"); an edge passes "", since the root already counts the
// notices the router copies to it.
func newCohort(mode string) *cohort {
	n := livenessSeries()[mode]
	return &cohort{
		down:    make(map[comm.NodeID]bool),
		state:   make(map[comm.NodeID]standing),
		crashes: n[0],
		rejoins: n[1],
	}
}

// openRound enrols members in a new round and dispatches to each one that
// is up; one that is down is written off, since its dispatch would be lost.
func (c *cohort) openRound(members []comm.NodeID, dispatch func(comm.NodeID)) {
	clear(c.state)
	c.open, c.members, c.owed = true, members, 0
	for _, id := range members {
		if c.down[id] {
			c.state[id] = writtenOff
			continue
		}
		c.state[id] = 0
		c.owed++
		dispatch(id)
	}
}

// closeRound stops the round from taking updates or re-enrolling; its
// membership stays readable until the next openRound.
func (c *cohort) closeRound() { c.open = false }

// member reports whether id was enrolled in the current round.
func (c *cohort) member(id comm.NodeID) bool {
	_, ok := c.state[id]
	return ok
}

// lost reports whether the current round has written id off.
func (c *cohort) lost(id comm.NodeID) bool { return c.state[id]&writtenOff != 0 }

// settled reports that every member has delivered or been written off.
func (c *cohort) settled() bool { return c.owed == 0 }

// expects reports whether the open round takes an update from id: only a
// member's first, though it was written off after sending it.
func (c *cohort) expects(id comm.NodeID) bool {
	s, ok := c.state[id]
	return c.open && ok && s&delivered == 0
}

// deliver records id's update; the caller checked expects(id).
func (c *cohort) deliver(id comm.NodeID) {
	s := c.state[id]
	if s == 0 {
		c.owed--
	}
	c.state[id] = s | delivered
}

// crash marks id down and reports whether that wrote off a member of the
// open round that still owed its update.
func (c *cohort) crash(id comm.NodeID) bool {
	c.down[id] = true
	c.crashes.Inc()
	s, ok := c.state[id]
	if !c.open || !ok {
		return false
	}
	c.state[id] = s | writtenOff
	if s == 0 {
		c.owed--
	}
	return s == 0
}

// rejoin marks id up and reports whether to dispatch to it again: it is a
// member of the open round that has not delivered, so its round state died
// with the crash, noticed or not. It owes again.
func (c *cohort) rejoin(id comm.NodeID) bool {
	delete(c.down, id)
	c.rejoins.Inc()
	s, ok := c.state[id]
	if !c.open || !ok || s&delivered != 0 {
		return false
	}
	if s != 0 {
		c.owed++
	}
	c.state[id] = 0
	return true
}
