package fl

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"aergia/internal/comm"
)

// TestCohortTransitions walks the tracker through every transition. Each
// script is a "|"-separated list of steps: "open 1 2 3" opens a round over
// those members, "deliver 1" and "close" act, "crash 1" and "rejoin 1" act
// and may assert their result ("= true"), and "expects/lost/member/down 1 =
// b", "owed = n" and "dispatched = 1 3" assert state.
func TestCohortTransitions(t *testing.T) {
	for _, tc := range []struct{ name, script string }{
		{"open dispatches the live members and writes off the down ones",
			"crash 2 = false | open 1 2 3 | dispatched = 1 3 | owed = 2 | lost 2 = true | member 2 = true | member 4 = false"},
		{"the round settles when every member delivered",
			"open 1 2 | deliver 1 | owed = 1 | deliver 2 | owed = 0"},
		{"a second update from the same member is not taken",
			"open 1 2 | expects 1 = true | deliver 1 | expects 1 = false | owed = 1"},
		{"a crash writes off a member that owes",
			"open 1 2 | crash 1 = true | owed = 1 | lost 1 = true | down 1 = true"},
		{"a crash after delivering loses the member but keeps its update",
			"open 1 2 | deliver 1 | crash 1 = false | lost 1 = true | owed = 1"},
		{"an update already in flight from a written-off member is taken",
			"open 1 2 | crash 1 = true | expects 1 = true | deliver 1 | owed = 1 | lost 1 = true | expects 1 = false"},
		{"a rejoin re-enrols a written-off member",
			"open 1 2 | crash 1 = true | owed = 1 | rejoin 1 = true | owed = 2 | lost 1 = false | down 1 = false"},
		{"a rejoin re-enrols a member down at the open",
			"crash 1 | open 1 2 | owed = 1 | rejoin 1 = true | owed = 2 | dispatched = 2"},
		{"a rejoin re-enrols a member still counted as owing (its crash went unnoticed)",
			"open 1 2 | rejoin 1 = true | owed = 2 | lost 1 = false"},
		{"a rejoin after delivering re-enrols nothing",
			"open 1 2 | deliver 1 | crash 1 | rejoin 1 = false | owed = 1 | lost 1 = true"},
		{"a closed round takes nothing and re-enrols nobody",
			"open 1 2 | close | expects 1 = false | crash 1 = false | down 1 = true | rejoin 1 = false | member 1 = true | owed = 2"},
		{"outsiders change only liveness",
			"open 1 | crash 5 = false | down 5 = true | expects 5 = false | rejoin 5 = false | down 5 = false | owed = 1"},
		{"a new round forgets the last one's standings",
			"open 1 2 | crash 1 | deliver 2 | rejoin 1 | open 2 3 | member 1 = false | lost 2 = false | expects 2 = true | owed = 2 | dispatched = 1 2 2 3"},
		{"a round of down members owes nothing at the open",
			"crash 1 | crash 2 | open 1 2 | owed = 0 | dispatched ="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCohort("")
			var dispatched []comm.NodeID
			for _, step := range strings.Split(tc.script, "|") {
				verb, want, _ := strings.Cut(strings.TrimSpace(step), "=")
				f := strings.Fields(verb)
				ids := make([]comm.NodeID, len(f)-1)
				for i, s := range f[1:] {
					n, err := strconv.Atoi(s)
					if err != nil {
						t.Fatalf("step %q: %v", step, err)
					}
					ids[i] = comm.NodeID(n)
				}
				var got any
				switch f[0] {
				case "open":
					c.openRound(ids, func(id comm.NodeID) { dispatched = append(dispatched, id) })
				case "close":
					c.closeRound()
				case "deliver":
					c.deliver(ids[0])
				case "crash":
					got = c.crash(ids[0])
				case "rejoin":
					got = c.rejoin(ids[0])
				case "expects":
					got = c.expects(ids[0])
				case "lost":
					got = c.lost(ids[0])
				case "member":
					got = c.member(ids[0])
				case "down":
					got = c.down[ids[0]]
				case "owed":
					got = c.owed
					if settled := c.settled(); settled != (c.owed == 0) {
						t.Fatalf("step %q: settled %v with %d owed", step, settled, c.owed)
					}
				case "dispatched":
					got = strings.Trim(fmt.Sprint(dispatched), "[]")
				default:
					t.Fatalf("unknown step %q", step)
				}
				if want = strings.TrimSpace(want); strings.Contains(step, "=") && fmt.Sprint(got) != want {
					t.Fatalf("step %q: got %v", step, got)
				}
			}
		})
	}
}

// TestCohortCountsLiveness: a federator's tracker counts every crash and
// rejoin notice under its mode, member or not, and an edge's counts none.
func TestCohortCountsLiveness(t *testing.T) {
	series := livenessSeries()
	read := func() [4]float64 {
		return [4]float64{series["sync"][0].Value(), series["sync"][1].Value(),
			series["async"][0].Value(), series["async"][1].Value()}
	}
	before := read()
	fed, async, edge := newCohort("sync"), newCohort("async"), newCohort("")
	fed.openRound([]comm.NodeID{1}, func(comm.NodeID) {})
	for _, c := range []*cohort{fed, edge} {
		c.crash(1)
		c.crash(7)
		c.rejoin(1)
	}
	async.crash(3)
	async.rejoin(3)
	async.rejoin(4)
	after := read()
	if d := [4]float64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}; d != [4]float64{2, 1, 1, 2} {
		t.Fatalf("counted down/rejoined sync %v/%v, async %v/%v; want 2/1, 1/2", d[0], d[1], d[2], d[3])
	}
}
