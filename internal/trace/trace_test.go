package trace

import (
	"strings"
	"testing"
	"time"

	"aergia/internal/comm"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Record(time.Second, 1, 0, TrainStart, "x")
	if l.Len() != 0 || l.Events() != nil {
		t.Fatal("nil log should be inert")
	}
}

func TestEventsOrderedByTime(t *testing.T) {
	l := NewLog()
	l.Record(3*time.Second, 1, 0, UpdateSent, "")
	l.Record(1*time.Second, 2, 0, TrainStart, "")
	l.Record(2*time.Second, 1, 0, ProfileSent, "")
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Kind != TrainStart || evs[2].Kind != UpdateSent {
		t.Fatalf("order = %v, %v, %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
}

func TestRenderAndLanes(t *testing.T) {
	l := NewLog()
	l.Record(0, comm.FederatorID, 0, RoundStart, "2 clients")
	l.Record(time.Second, 1, 0, TrainStart, "")
	l.Record(2*time.Second, 1, 0, ModelFrozen, "after 3 batches")
	l.Record(2*time.Second, 1, 0, OffloadSent, "to client 2")
	l.Record(3*time.Second, 2, 0, HelperStart, "")
	l.Record(4*time.Second, 2, 0, HelperDone, "")
	l.Record(5*time.Second, comm.FederatorID, 0, RoundEnd, "")

	var render strings.Builder
	if err := l.Render(&render); err != nil {
		t.Fatal(err)
	}
	out := render.String()
	for _, want := range []string{"federator", "client 1", "model-frozen", "round-end"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	var lanes strings.Builder
	if err := l.Lanes(&lanes, 40); err != nil {
		t.Fatal(err)
	}
	lo := lanes.String()
	lines := strings.Split(strings.TrimSpace(lo), "\n")
	// Legend + 3 lanes (federator, client 1, client 2).
	if len(lines) != 4 {
		t.Fatalf("lanes lines = %d:\n%s", len(lines), lo)
	}
	if !strings.Contains(lo, "f") || !strings.Contains(lo, "#") {
		t.Fatalf("lane glyphs missing:\n%s", lo)
	}
}

func TestLanesEmpty(t *testing.T) {
	var b strings.Builder
	if err := NewLog().Lanes(&b, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no events") {
		t.Fatalf("empty lanes = %q", b.String())
	}
}

func TestFilterRoundAndCounts(t *testing.T) {
	l := NewLog()
	l.Record(1, 1, 0, TrainStart, "")
	l.Record(2, 1, 1, TrainStart, "")
	l.Record(3, 1, 1, UpdateSent, "")
	r1 := l.FilterRound(1)
	if len(r1) != 2 {
		t.Fatalf("round-1 events = %d", len(r1))
	}
	counts := KindCounts(r1)
	if counts[TrainStart] != 1 || counts[UpdateSent] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{
		RoundStart, TrainStart, ProfileSent, ScheduleSent, ModelFrozen,
		OffloadSent, HelperStart, HelperDone, UpdateSent, RoundEnd,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d renders %q", k, s)
		}
		seen[s] = true
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind should render 'unknown'")
	}
}

// TestEdgeAggregatorLanes: hier edge aggregators carry negative node IDs
// (hier.EdgeID(k) = -2-k) and must render as their own labeled lanes —
// federator first, then edges in tier order, then clients — not as
// nonsense "client -2" lanes.
func TestEdgeAggregatorLanes(t *testing.T) {
	l := NewLog()
	l.Record(0, comm.FederatorID, 0, RoundStart, "")
	l.Record(1*time.Millisecond, 0, 0, TrainStart, "")
	l.Record(2*time.Millisecond, -3, 0, UpdateSent, "edge flush") // edge 1
	l.Record(3*time.Millisecond, -2, 0, UpdateSent, "edge flush") // edge 0
	l.Record(4*time.Millisecond, comm.FederatorID, 0, RoundEnd, "")

	var lanes strings.Builder
	if err := l.Lanes(&lanes, 40); err != nil {
		t.Fatal(err)
	}
	out := lanes.String()
	if strings.Contains(out, "client -") {
		t.Fatalf("edge rendered as negative client:\n%s", out)
	}
	fed := strings.Index(out, "federator")
	e0 := strings.Index(out, "edge 0")
	e1 := strings.Index(out, "edge 1")
	cl := strings.Index(out, "client  0")
	if fed < 0 || e0 < 0 || e1 < 0 || cl < 0 {
		t.Fatalf("missing lanes (fed=%d e0=%d e1=%d client=%d):\n%s", fed, e0, e1, cl, out)
	}
	if !(fed < e0 && e0 < e1 && e1 < cl) {
		t.Fatalf("lane order want federator < edge 0 < edge 1 < client:\n%s", out)
	}

	var render strings.Builder
	if err := l.Render(&render); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(render.String(), "edge 1") || strings.Contains(render.String(), "client -") {
		t.Fatalf("Render mislabels edges:\n%s", render.String())
	}

	// Chrome export: edge lanes get valid non-negative thread IDs distinct
	// from every client lane.
	if tid := chromeTid(-2); tid < 0 || tid == chromeTid(0) {
		t.Fatalf("edge 0 tid = %d", tid)
	}
	if chromeTid(-2) == chromeTid(-3) {
		t.Fatal("edge lanes collide")
	}
}

// KindCounts summarizes a timeline by event kind.
func KindCounts(events []Event) map[Kind]int {
	counts := make(map[Kind]int)
	for _, e := range events {
		counts[e.Kind]++
	}
	return counts
}
