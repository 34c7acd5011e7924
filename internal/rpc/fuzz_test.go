package rpc

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"testing"

	"aergia/internal/comm"
)

// frames gob-encodes values onto one stream, the way one connection
// carries them.
func frames(t testing.TB, vs ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzReadFrame feeds readFrame arbitrary bytes in place of a peer's
// connection. Whatever arrives — a frame cut short, a length prefix that
// promises more than the stream holds, a value of another type — the read
// loop's decode returns a message or an error; it never panics, never
// spins, and never allocates out of proportion to the bytes it was sent.
func FuzzReadFrame(f *testing.F) {
	RegisterPayload(pingPayload{})
	hello := wireMessage{From: 7, To: ControlID, Kind: comm.KindControl, Size: 12,
		Span:    comm.SpanContext{Trace: 3, Span: 9, Parent: 4, Sent: 5},
		Payload: HelloPayload{Name: "w1", Slots: 2}}
	grant := wireMessage{From: ControlID, To: 7, Kind: comm.KindControl,
		Payload: LeaseGrantPayload{Leases: []Lease{{ID: "fig4-00", Seq: 3, Spec: []byte(`{"experiment":"fig4"}`)}}}}
	ping := wireMessage{From: 1, To: 2, Round: 4, Kind: comm.KindUpdate, Size: 5, Payload: pingPayload{Text: "hello"}}
	valid := frames(f, &hello, &grant, &ping)
	f.Add(valid)
	f.Add(frames(f, &wireMessage{From: 1, To: 2})) // nil payload
	// Every truncation of a stream of valid frames.
	for cut := 0; cut < len(valid); cut += 7 {
		f.Add(valid[:cut])
	}
	// Length prefixes that promise more than follows: gob's uint is a byte
	// count negated, then big-endian bytes. 2^40 and 2^62 are over gob's
	// frame cap (8 GiB on 64-bit) and refused outright; 1 GiB and 8 GiB-1
	// are under it and read until the stream runs dry.
	for _, prefix := range [][]byte{
		{0xfa, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00},
		{0xf8, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
		{0xfc, 0x40, 0x00, 0x00, 0x00},
		{0xfb, 0x01, 0xff, 0xff, 0xff, 0xff},
	} {
		f.Add(prefix)
		f.Add(append(append([]byte{}, prefix...), valid...))
	}
	// Values of other types where an envelope belongs.
	f.Add(frames(f, "not an envelope"))
	f.Add(frames(f, &struct{ From, To string }{"a", "b"}))
	f.Add(frames(f, &struct{ Payload []int }{[]int{1, 2, 3}}))
	f.Add(frames(f, &HelloPayload{Name: "bare payload"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec := gob.NewDecoder(bytes.NewReader(data))
		n := 0
		for {
			if _, err := readFrame(dec); err != nil {
				break
			}
			if n++; n > len(data) {
				t.Fatalf("decoded %d frames from %d bytes", n, len(data))
			}
		}
		runtime.ReadMemStats(&after)
		// gob reads a frame in 10 MiB chunks, so a forged length costs one
		// chunk however much it promises; its type machinery adds a few
		// hundred kB per new wire type.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+64*len(data)); grew > limit {
			t.Fatalf("%d bytes of input allocated %d (limit %d)", len(data), grew, limit)
		}
	})
}
