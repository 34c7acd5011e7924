package rpc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aergia/internal/comm"
	"aergia/internal/race"
)

// TestReadFrameAllocations pins what reading a control payload costs: its
// own strings and byte slices, each an exact-sized copy out of the read
// buffer, and its boxing into Message.Payload, and nothing else. A lease
// request costs nothing, and a result's "done" is the constant, not a copy.
// Laying any of them out costs nothing.
func TestReadFrameAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's own allocations are not the program's")
	}
	// Per kind: the owned copies, then one boxing where the payload is
	// not a pointer-free word (Go boxes a small integer for free).
	for i, want := range []float64{
		2 + 1,     // hello: Name, Addr
		0,         // lease request
		3 + 1,     // grant of one lease: the slice, its ID and Spec
		4 + 1,     // heartbeat of one job: the slice, its ID, Name, Addr
		2 + 1,     // result: ID, Result
		2 + 1,     // event: ID, Event
		1 + 1,     // cancel: ID
		1 + 1,     // bye: Reason
		0 + 0 + 1, // nothing to own: the empty frame is a nil payload
	} {
		msg := comm.Message{}
		if i < len(controlMessages) {
			msg = controlMessages[i]
		}
		const runs = 100
		stream := bytes.Repeat(frames(t, msg), runs+1) // AllocsPerRun warms up with one more
		fr := newFrameReader(bytes.NewReader(stream))
		var got comm.Message
		allocs := testing.AllocsPerRun(runs, func() {
			var err error
			if got, err = fr.readFrame(); err != nil {
				t.Fatal(err)
			}
		})
		if msg.Payload == nil {
			want = 0
		}
		if allocs != want {
			t.Errorf("reading a %T allocates %v times, want %v", msg.Payload, allocs, want)
		}
		if got.From != msg.From || got.Kind != msg.Kind {
			t.Errorf("read back %+v, want %+v", got, msg)
		}
		var fw frameWriter
		if allocs := testing.AllocsPerRun(runs, func() {
			if _, err := fw.frame(&msg); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("laying out a %T allocates %v times, want 0", msg.Payload, allocs)
		}
	}
}

// TestReadFrameAllocatesTheResult reads a result with a 3 kB record: it
// costs the record once, and a constant besides.
func TestReadFrameAllocatesTheResult(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's own allocations are not the program's")
	}
	record := bytes.Repeat([]byte("x"), 3000)
	msg := comm.Message{Payload: ResultPayload{ID: "fig4-00", Seq: 1, Status: "done", Result: record}}
	stream := bytes.Repeat(frames(t, msg), 11)
	fr := newFrameReader(bytes.NewReader(stream))
	if _, err := fr.readFrame(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		if _, err := fr.readFrame(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := (after.TotalAlloc - before.TotalAlloc) / 10; grew < uint64(len(record)) || grew > uint64(len(record))+256 {
		t.Errorf("reading a result of %d bytes allocates %d, want the record and at most 256 more", len(record), grew)
	}
}

// pair starts two peers that route to each other.
func pair(t *testing.T, hb comm.Handler) (a, b *Peer) {
	t.Helper()
	a, err := Listen(1, DefaultAddr, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	if b, err = Listen(2, DefaultAddr, hb); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	a.AddRoute(2, b.Addr())
	b.AddRoute(1, a.Addr())
	return a, b
}

// TestSendRefusesAFrameOverItsCap: a result over its cap is refused before
// anything is written, with an error that names the cap, and the next
// message goes through on the same connection.
func TestSendRefusesAFrameOverItsCap(t *testing.T) {
	old := frameCaps[tagResult]
	frameCaps[tagResult] = 200
	defer func() { frameCaps[tagResult] = old }()
	got := newCollector()
	a, _ := pair(t, got)
	small := ResultPayload{ID: "fig4-00", Status: "done", Result: []byte(`{}`)}
	if err := a.Send(comm.Message{To: 2, Payload: small}); err != nil {
		t.Fatal(err)
	}
	got.wait(t, 1)
	a.mu.Lock()
	oc := a.conns[2]
	a.mu.Unlock()
	conn := oc.conn

	big := small
	big.Result = bytes.Repeat([]byte("x"), 200)
	err := a.Send(comm.Message{To: 2, Payload: big})
	if !errors.Is(err, ErrFrameTooLarge) || !strings.Contains(err.Error(), "result frame of 316 bytes is over its cap of 200 bytes") {
		t.Fatalf("oversized send = %v, want ErrFrameTooLarge naming the cap of 200", err)
	}
	if err := a.Send(comm.Message{To: 2, Round: 9, Payload: small}); err != nil {
		t.Fatal(err)
	}
	if msgs := got.wait(t, 2); len(msgs) != 2 || msgs[1].Round != 9 {
		t.Fatalf("received %+v, want the two small results", msgs)
	}
	if oc.conn != conn {
		t.Fatal("the refused frame cost the connection")
	}
}

// TestPeerFromAnotherBuildIsRefused: a listener whose preface names
// another wire version fails the send with an error that says so, and a
// peer refuses a dialer whose preface is not its own.
func TestPeerFromAnotherBuildIsRefused(t *testing.T) {
	ln, err := net.Listen("tcp", DefaultAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		other := preface
		other[7]++
		if _, err := conn.Write(other[:]); err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, conn)
	}()
	a, err := Listen(1, DefaultAddr, newCollector())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddRoute(2, ln.Addr().String())
	err = a.Send(comm.Message{To: 2, Payload: ByePayload{Reason: "x"}})
	if !errors.Is(err, errWireVersion) || !strings.Contains(err.Error(), "wire version 2, this build 1") {
		t.Fatalf("send to another build = %v, want a refusal naming both versions", err)
	}

	// A dialer speaking bare gob: the peer answers with its preface and
	// hangs up.
	conn, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x1c, 0xff, 0x81, 0x03, 0x01, 0x01, 0x0b, 0x77}); err != nil {
		t.Fatal(err)
	}
	answer, err := io.ReadAll(conn)
	if err != nil || !bytes.Equal(answer, preface[:]) {
		t.Fatalf("the peer answered % x (%v), want its preface and then EOF", answer, err)
	}

	// A listener speaking bare gob refuses the preface's first byte as a
	// message length at once, rather than wait for more bytes.
	var v any
	if err := gob.NewDecoder(bytes.NewReader(preface[:1])).Decode(&v); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("gob reading the preface: %v, want a refusal of the length", err)
	}
}

// TestLargeFramesRoundTrip reads back frames over the read buffer, gob
// and control alike, between small ones on the same stream. It compares
// them once all are read: a payload owns its bytes, so reading the next
// frame into the same buffer leaves it as it was.
func TestLargeFramesRoundTrip(t *testing.T) {
	RegisterPayload(pingPayload{})
	text := strings.Repeat("0123456789", 3*bufSize)
	sent := []comm.Message{
		{From: 1, Payload: pingPayload{Text: text}},
		{From: 2, Payload: LeaseRequestPayload{Want: 1}},
		{From: 3, Payload: ResultPayload{ID: "fig4-00", Status: "done", Result: []byte(text)}},
		{From: 4, Payload: pingPayload{Text: "small"}},
		{From: 5, Payload: EventPayload{ID: "fig4-00", Event: []byte(text[:bufSize])}},
		{From: 6, Payload: EventPayload{ID: "fig4-01", Event: []byte(text[1 : 2*bufSize])}},
		{From: 7, Payload: pingPayload{Text: text[3 : 3*bufSize]}},
	}
	fr := newFrameReader(bytes.NewReader(frames(t, sent...)))
	var got []comm.Message
	for range sent {
		msg, err := fr.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, msg)
	}
	if _, err := fr.readFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	for i := range sent {
		if !reflect.DeepEqual(got[i], sent[i]) {
			t.Fatalf("read back a %T from node %d that differs from the one sent", got[i].Payload, got[i].From)
		}
	}
}

// TestLargeFrameBuffersKept: a connection keeps the buffer a gob frame
// over keepMax grew, each way, so a stream of models reuses one; it drops
// the one a control frame over keepMax grew.
func TestLargeFrameBuffersKept(t *testing.T) {
	RegisterPayload(pingPayload{})
	text := strings.Repeat("x", 2*keepMax)
	for _, c := range []struct {
		payload any
		kept    bool
	}{
		{pingPayload{Text: text}, true},
		{ResultPayload{ID: "fig4-00", Status: "done", Result: []byte(text)}, false},
	} {
		var fw frameWriter
		frame, err := fw.frame(&comm.Message{Payload: c.payload})
		if err != nil {
			t.Fatal(err)
		}
		fr := newFrameReader(bytes.NewReader(frame))
		if _, err := fr.readFrame(); err != nil {
			t.Fatal(err)
		}
		if kept := cap(fw.buf) >= len(frame); kept != c.kept {
			t.Errorf("a %T frame of %d bytes: the writer kept its buffer %v, want %v", c.payload, len(frame), kept, c.kept)
		}
		if kept := cap(fr.large) >= len(frame)-4; kept != c.kept {
			t.Errorf("a %T frame of %d bytes: the reader kept its buffer %v, want %v", c.payload, len(frame), kept, c.kept)
		}
	}
}

// TestReadFrameRefusesALengthOverItsCap: each tag's cap is checked on the
// length alone, before a byte of the frame is read or allocated for.
func TestReadFrameRefusesALengthOverItsCap(t *testing.T) {
	for tg := tagNil; tg < numTags; tg++ {
		stream := append(lengthFor(uint32(frameCaps[tg])+1, tg), make([]byte, 2*bufSize)...)
		fr := newFrameReader(bytes.NewReader(stream))
		if _, err := fr.readFrame(); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("a %s frame one byte over its cap: %v, want refused", tagNames[tg], err)
		}
		if fr.large != nil {
			t.Errorf("a %s frame over its cap got a buffer", tagNames[tg])
		}
	}
}
