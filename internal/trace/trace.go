// Package trace records the per-node event timeline of a federated round —
// the observable counterpart of the paper's Figure 5 (profiling,
// scheduling, freezing & offloading, aggregation). The federator and
// clients emit events; the log renders them chronologically or as a
// per-node lane diagram.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"aergia/internal/comm"
)

// Kind classifies timeline events.
type Kind int

// Timeline event kinds.
const (
	RoundStart Kind = iota + 1
	TrainStart
	ProfileSent
	ScheduleSent
	ModelFrozen
	OffloadSent
	HelperStart
	HelperDone
	UpdateSent
	RoundEnd
	NodeCrash
	NodeRejoin
	OffloadReassigned
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case RoundStart:
		return "round-start"
	case TrainStart:
		return "train-start"
	case ProfileSent:
		return "profile-sent"
	case ScheduleSent:
		return "schedule-sent"
	case ModelFrozen:
		return "model-frozen"
	case OffloadSent:
		return "offload-sent"
	case HelperStart:
		return "helper-start"
	case HelperDone:
		return "helper-done"
	case UpdateSent:
		return "update-sent"
	case RoundEnd:
		return "round-end"
	case NodeCrash:
		return "node-crash"
	case NodeRejoin:
		return "node-rejoin"
	case OffloadReassigned:
		return "offload-reassigned"
	default:
		return "unknown"
	}
}

// Event is one timeline entry.
type Event struct {
	Time   time.Duration
	Node   comm.NodeID
	Round  int
	Kind   Kind
	Detail string
}

// Log is a thread-safe event collector.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Record appends one event; nil logs are safe to record into (no-op), so
// tracing can stay optional at the call sites.
func (l *Log) Record(at time.Duration, node comm.NodeID, round int, kind Kind, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, Event{
		Time: at, Node: node, Round: round, Kind: kind, Detail: detail,
	})
}

// Events returns a time-ordered copy of the recorded events.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// nodeName labels a node for rendering: the federator, a hier edge
// aggregator (hier.EdgeID(k) = -2-k, so IDs below the federator decode back
// to their tier index), or a client.
func nodeName(id comm.NodeID) string {
	switch {
	case id == comm.FederatorID:
		return "federator"
	case id < comm.FederatorID:
		return fmt.Sprintf("edge %d", -(int(id) + 2))
	default:
		return fmt.Sprintf("client %d", id)
	}
}

// laneRank orders lanes for display: the federator first, then its edge
// aggregators in tier order, then the clients.
func laneRank(id comm.NodeID) int {
	switch {
	case id == comm.FederatorID:
		return 0
	case id < comm.FederatorID:
		return 1
	default:
		return 2
	}
}

// Render writes the chronological event listing.
func (l *Log) Render(w io.Writer) error {
	for _, e := range l.Events() {
		line := fmt.Sprintf("%10.3fs  r%-3d %-10s %-14s %s\n",
			e.Time.Seconds(), e.Round, nodeName(e.Node), e.Kind, e.Detail)
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}

// laneGlyphs maps event kinds to single-character lane markers.
func laneGlyph(k Kind) byte {
	switch k {
	case RoundStart, TrainStart:
		return '|'
	case ProfileSent:
		return 'p'
	case ScheduleSent:
		return 's'
	case ModelFrozen:
		return 'f'
	case OffloadSent:
		return 'o'
	case HelperStart:
		return 'h'
	case HelperDone:
		return 'H'
	case UpdateSent:
		return 'u'
	case RoundEnd:
		return '#'
	case NodeCrash:
		return 'x'
	case NodeRejoin:
		return 'r'
	case OffloadReassigned:
		return 'R'
	default:
		return '?'
	}
}

// Lanes renders a per-node ASCII timeline of the given width (the Figure 5
// style view): one lane per node, glyphs marking events.
func (l *Log) Lanes(w io.Writer, width int) error {
	events := l.Events()
	if len(events) == 0 {
		_, err := io.WriteString(w, "(no events)\n")
		return err
	}
	if width < 20 {
		width = 20
	}
	maxT := events[len(events)-1].Time
	if maxT <= 0 {
		maxT = 1
	}
	nodes := make(map[comm.NodeID][]Event)
	var order []comm.NodeID
	for _, e := range events {
		if _, seen := nodes[e.Node]; !seen {
			order = append(order, e.Node)
		}
		nodes[e.Node] = append(nodes[e.Node], e)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if ra, rb := laneRank(a), laneRank(b); ra != rb {
			return ra < rb
		}
		if laneRank(a) == 1 {
			return a > b // edges: -2 (edge 0) before -3 (edge 1), ...
		}
		return a < b
	})
	legend := "legend: | start  p profile  s schedule  f freeze  o offload  h/H helper  u update  # round-end  x crash  r rejoin  R reassign\n"
	if _, err := io.WriteString(w, legend); err != nil {
		return err
	}
	for _, id := range order {
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = '.'
		}
		for _, e := range nodes[id] {
			pos := int(float64(e.Time) / float64(maxT) * float64(width-1))
			if pos < 0 {
				pos = 0
			}
			if pos >= width {
				pos = width - 1
			}
			lane[pos] = laneGlyph(e.Kind)
		}
		name := nodeName(id)
		if id >= 0 {
			name = fmt.Sprintf("client %2d", id)
		}
		if _, err := fmt.Fprintf(w, "%-10s %s\n", name, lane); err != nil {
			return err
		}
	}
	return nil
}

// FilterRound returns the events of one round, time-ordered.
func (l *Log) FilterRound(round int) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Round == round {
			out = append(out, e)
		}
	}
	return out
}
