package rpc

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"aergia/internal/comm"
)

// frames lays messages out onto one stream, the way one connection
// carries them.
func frames(t testing.TB, msgs ...comm.Message) []byte {
	t.Helper()
	var fw frameWriter
	var out []byte
	for i := range msgs {
		f, err := fw.frame(&msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f...)
	}
	return out
}

// controlMessages holds one message of each control payload kind, and
// besides a heartbeat with no identity, the empty grant that acks an
// attach, and a failed result.
var controlMessages = []comm.Message{
	{From: 7, To: ControlID, Kind: comm.KindControl, Size: 12,
		Span:    comm.SpanContext{Trace: 3, Span: 9, Parent: 4, Sent: 5},
		Payload: HeartbeatPayload{Name: "w1", Addr: "127.0.0.1:4000", Slots: 2, Want: 2}},
	{From: 7, To: ControlID, Kind: comm.KindControl, Payload: HeartbeatPayload{Want: 2}},
	{From: ControlID, To: 7, Kind: comm.KindControl,
		Payload: LeaseGrantPayload{Leases: []Lease{{ID: "fig4-00", Seq: 3, Spec: []byte(`{"experiment":"fig4"}`)}}}},
	{From: ControlID, To: 7, Kind: comm.KindControl, Payload: LeaseGrantPayload{}},
	{From: 7, To: ControlID, Kind: comm.KindControl,
		Payload: ResultPayload{ID: "fig4-00", Seq: 3, Status: "done", ElapsedNS: 1234, Result: []byte(`{}`), Want: 1}},
	{From: 7, To: ControlID, Kind: comm.KindControl,
		Payload: ResultPayload{ID: "fig4-01", Seq: 4, Status: "failed", ElapsedNS: 5, Error: "worker w1: boom", Want: 2}},
	{From: 7, To: ControlID, Kind: comm.KindControl, Payload: EventPayload{ID: "fig4-00", Event: []byte(`{"round":1}`)}},
	{From: ControlID, To: 7, Kind: comm.KindControl, Payload: CancelPayload{ID: "fig4-00"}},
	{From: 7, To: ControlID, Kind: comm.KindControl, Payload: ByePayload{Reason: "shutdown"}},
}

// lengthFor is a frame's first five bytes, promising n bytes after the
// length field.
func lengthFor(n uint32, t tag) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, n), byte(t))
}

// FuzzReadFrame feeds readFrame arbitrary bytes in place of a peer's
// connection. Whatever arrives — a frame cut short, a length its tag does
// not allow or the stream does not deliver, an unknown tag, a payload that
// does not fill its frame — the read loop returns a message or an error; it
// never panics, never spins, and allocates in proportion to the bytes it
// was sent plus a constant.
func FuzzReadFrame(f *testing.F) {
	RegisterPayload(pingPayload{})
	ping := comm.Message{From: 1, To: 2, Round: 4, Kind: comm.KindUpdate, Size: 5, Payload: pingPayload{Text: "hello"}}
	all := append(append([]comm.Message{}, controlMessages...), ping, comm.Message{From: 1, To: 2}, ping)
	valid := frames(f, all...)
	f.Add(valid)
	for _, m := range all {
		f.Add(frames(f, m))
	}
	// Every truncation of a stream of valid frames.
	for cut := range len(valid) {
		f.Add(valid[:cut])
	}
	// Each tag with a length under its header, at its cap, over its cap,
	// and at the largest the field holds; alone and before valid frames.
	for t := tagNil; t < numTags; t++ {
		for _, n := range []uint32{headerSize - 1, uint32(frameCaps[t]), uint32(frameCaps[t]) + 1, 1<<32 - 1} {
			f.Add(lengthFor(n, t))
			f.Add(append(lengthFor(n, t), valid...))
		}
	}
	// Unknown tags.
	for _, t := range []tag{0, numTags, 0xff} {
		f.Add(append(lengthFor(headerSize, t), make([]byte, headerSize-1)...))
	}
	// A payload one byte short and one byte long, and a grant whose lease
	// count promises more than its frame holds.
	for _, m := range controlMessages {
		fr := frames(f, m)
		short := append([]byte{}, fr[:len(fr)-1]...)
		binary.LittleEndian.PutUint32(short, uint32(len(short)-4))
		long := append(append([]byte{}, fr...), 0)
		binary.LittleEndian.PutUint32(long, uint32(len(long)-4))
		f.Add(short)
		f.Add(long)
	}
	grant := frames(f, controlMessages[2])
	binary.LittleEndian.PutUint32(grant[4+headerSize:], 1<<31)
	f.Add(grant)
	// Bytes that are not gob inside a gob frame, and gob message counts
	// that are malformed or promise more than the frame holds: gob would
	// make a buffer of the count before reading it.
	gobFrame := func(body ...byte) []byte {
		fr := append(lengthFor(uint32(headerSize+len(body)), tagGob), make([]byte, headerSize-1)...)
		return append(fr, body...)
	}
	f.Add(gobFrame(0x03, 0xff, 0x81, 0x02))
	f.Add(gobFrame(0x80, 0x00))
	f.Add(gobFrame(0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	f.Add(gobFrame(0xfd, 0x90, 0x00, 0x00))
	f.Add(gobFrame(0x02, 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := newFrameReader(bytes.NewReader(data))
		n := 0
		for {
			if _, err := fr.readFrame(); err != nil {
				break
			}
			if n++; n > len(data) {
				t.Fatalf("decoded %d frames from %d bytes", n, len(data))
			}
		}
		runtime.ReadMemStats(&after)
		// The read buffer, a large frame's first keepMax bytes and the gob
		// decoder with its engines for the test's one payload type are the
		// constant; past keepMax a forged length costs at most twice what
		// arrived, and gob a few times its input.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(128<<10+64*len(data)); grew > limit {
			t.Fatalf("%d bytes of input allocated %d (limit %d)", len(data), grew, limit)
		}
	})
}

// FuzzControlRoundTrip lays each of the six control payloads out and
// reads it back: the message must come back as it was sent, header and
// all, with an empty byte slice or list read back as nil, as gob did, and
// a heartbeat's Active, which the wire does not carry, as nil.
func FuzzControlRoundTrip(f *testing.F) {
	f.Add("w1", "127.0.0.1:4000", 2, uint64(41), []byte(`{"x":1}`), uint8(1))
	f.Add("", "done", -1, uint64(1)<<63, []byte{}, uint8(0))
	f.Add("fig4-abc", "failed", 1<<40, uint64(0), []byte{0xff, 0}, uint8(3))
	f.Add("\xff\xfe", "canceled", 0, uint64(7), []byte(nil), uint8(2))
	f.Fuzz(func(t *testing.T, s1, s2 string, n int, u uint64, b []byte, k uint8) {
		var leases []Lease
		var active []string
		for i := range int(k % 4) {
			leases = append(leases, Lease{ID: s1 + string(rune('a'+i)), Seq: u + uint64(i), Spec: b})
			active = append(active, s2+string(rune('a'+i)))
		}
		for _, p := range []any{
			LeaseGrantPayload{Leases: leases},
			HeartbeatPayload{Active: active, Name: s2, Addr: s1, Slots: n, Want: -n},
			ResultPayload{ID: s1, Seq: u, Status: s2, ElapsedNS: int64(n), Error: s1, Result: b, Want: n},
			EventPayload{ID: s1, Event: b},
			CancelPayload{ID: s1},
			ByePayload{Reason: s2},
		} {
			sent := comm.Message{From: comm.NodeID(n), To: comm.NodeID(-n), Round: int(k), Kind: comm.KindControl,
				Size: len(b), Span: comm.SpanContext{Trace: u, Span: ^u, Parent: uint64(n), Sent: -7}, Payload: p}
			got, err := newFrameReader(bytes.NewReader(frames(t, sent))).readFrame()
			if err != nil {
				t.Fatalf("%T: %v", p, err)
			}
			if want := wireForm(sent); !reflect.DeepEqual(got, want) {
				t.Fatalf("read back\n%#v\nsent\n%#v", got, want)
			}
		}
	})
}

// wireForm is msg as the wire reads it back: empty byte slices and lists
// as nil, and no heartbeat's Active.
func wireForm(msg comm.Message) comm.Message {
	orNil := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		return b
	}
	switch p := msg.Payload.(type) {
	case LeaseGrantPayload:
		if len(p.Leases) == 0 {
			p.Leases = nil
		}
		leases := make([]Lease, len(p.Leases))
		for i, l := range p.Leases {
			leases[i] = Lease{ID: l.ID, Seq: l.Seq, Spec: orNil(l.Spec)}
		}
		if p.Leases != nil {
			p.Leases = leases
		}
		msg.Payload = p
	case HeartbeatPayload:
		p.Active = nil
		msg.Payload = p
	case ResultPayload:
		p.Result = orNil(p.Result)
		msg.Payload = p
	case EventPayload:
		p.Event = orNil(p.Event)
		msg.Payload = p
	}
	return msg
}
