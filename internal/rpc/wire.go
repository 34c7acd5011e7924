package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"aergia/internal/comm"
)

// The wire (DESIGN.md §13, "The wire"). A connection opens with the
// dialer's preface, answered by the listener's. Then each message is one
// frame:
//
//	length  uint32  bytes after this field: tag, header and payload
//	tag     byte    the payload's type
//	header  9×u64   From, To, Round, Kind, Size, Span.{Trace, Span, Parent, Sent}
//	payload         the tag's layout
//
// Integers are little-endian. The eight control payloads have a layout of
// their own: fixed-width integers, and strings and byte slices as a uint32
// length then the bytes. Any other payload is gob, through one encoder and
// one decoder a connection, so a type's descriptor crosses once.

// wireVersion changes whenever a frame's layout does.
const wireVersion = 1

// preface opens every connection. Its first byte is one gob refuses as a
// message length, so a build that still speaks bare gob fails at once
// instead of waiting for bytes that never come.
var preface = [8]byte{0x80, 'a', 'e', 'r', 'g', 'i', 'a', wireVersion}

// errWireVersion is wrapped by the error a send returns when the peer's
// preface is not this build's: a peer from another build is refused.
var errWireVersion = errors.New("rpc: the peer is from another build")

// prefaceTimeout bounds how long a dialer waits for the listener's preface.
const prefaceTimeout = 5 * time.Second

type tag byte

const (
	tagNil tag = iota + 1 // no payload
	tagGob
	tagHello
	tagLeaseRequest
	tagLeaseGrant
	tagHeartbeat
	tagResult
	tagEvent
	tagCancel
	tagBye
	numTags
)

var tagNames = [numTags]string{"unknown", "empty", "gob", "hello", "lease request", "lease grant",
	"heartbeat", "result", "event", "cancel", "bye"}

// headerSize is a frame's length less its payload and length field.
const headerSize = 1 + 9*8

// frameCaps bounds each tag's frame length. The reader refuses a length
// over its tag's cap before it allocates, and a send refuses a frame over
// it before it writes.
var frameCaps = [numTags]int{
	tagNil:          headerSize,
	tagGob:          64 << 20, // 28× cifar100-vgg, the largest model (2.3 MB)
	tagHello:        64 << 10,
	tagLeaseRequest: headerSize + 8,
	tagLeaseGrant:   16 << 20,
	tagHeartbeat:    1 << 20,
	tagResult:       16 << 20, // the largest -quick record is 12.7 kB
	tagEvent:        1 << 20,
	tagCancel:       64 << 10,
	tagBye:          64 << 10,
}

// bufSize sizes a connection's read buffer and its write buffer. A frame
// over it is read or laid out in a buffer of its own, kept for the next
// frame unless it grew past keepMax, as Store.append keeps its own. A gob
// frame's buffer is kept whatever its size, as gob's encoder keeps its
// own: a connection that carries models reuses one model-sized buffer
// each way instead of allocating one a message.
const (
	bufSize = 4 << 10
	keepMax = 64 << 10
)

// ErrFrameTooLarge is wrapped by the error a send returns for a message
// whose frame is over its payload's cap. Nothing of it was sent.
var ErrFrameTooLarge = errors.New("rpc: frame too large")

// exchangePrefaces opens a connection, either side: it sends this build's
// preface and checks the peer's.
func exchangePrefaces(conn net.Conn) error {
	if _, err := conn.Write(preface[:]); err != nil {
		return err
	}
	var got [len(preface)]byte
	if _, err := io.ReadFull(conn, got[:]); err != nil {
		return fmt.Errorf("no preface came, so the peer is closing or from another build: %w", err)
	}
	switch {
	case got == preface:
		return nil
	case [7]byte(got[:7]) == [7]byte(preface[:7]):
		return fmt.Errorf("%w: it speaks wire version %d, this build %d", errWireVersion, got[7], wireVersion)
	default:
		return fmt.Errorf("%w: its preface is % x", errWireVersion, got)
	}
}

// gobBox carries a gob payload: gob encodes an interface only as a field.
type gobBox struct{ P any }

// appender is the io.Writer a connection's gob encoder writes a frame
// through.
type appender struct{ b []byte }

func (a *appender) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

// frameWriter lays one connection's messages out as frames.
type frameWriter struct {
	buf []byte       // bufSize bytes, made at the first frame, or what a frame grew it to
	out appender     // what enc writes a frame through
	enc *gob.Encoder // made at the connection's first gob payload
	box gobBox
}

// payloadTag is the tag a payload travels under.
func payloadTag(v any) tag {
	switch v.(type) {
	case nil:
		return tagNil
	case HelloPayload:
		return tagHello
	case LeaseRequestPayload:
		return tagLeaseRequest
	case LeaseGrantPayload:
		return tagLeaseGrant
	case HeartbeatPayload:
		return tagHeartbeat
	case ResultPayload:
		return tagResult
	case EventPayload:
		return tagEvent
	case CancelPayload:
		return tagCancel
	case ByePayload:
		return tagBye
	}
	return tagGob
}

// frame lays msg out as one frame and returns it; it is valid until the
// next call. A gob payload's error leaves the encoder's stream state
// unknown, so the caller must then give up the connection.
func (fw *frameWriter) frame(msg *comm.Message) ([]byte, error) {
	if fw.buf == nil {
		fw.buf = make([]byte, 0, bufSize)
	}
	t := payloadTag(msg.Payload)
	b := append(fw.buf[:0], 0, 0, 0, 0, byte(t))
	for _, v := range [...]int64{int64(msg.From), int64(msg.To), int64(msg.Round), int64(msg.Kind),
		int64(msg.Size), int64(msg.Span.Trace), int64(msg.Span.Span), int64(msg.Span.Parent), int64(msg.Span.Sent)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	if t == tagGob {
		if fw.enc == nil {
			fw.enc = gob.NewEncoder(&fw.out)
		}
		fw.out.b, fw.box.P = b, msg.Payload
		err := fw.enc.Encode(&fw.box)
		b, fw.out.b, fw.box.P = fw.out.b, nil, nil
		if err != nil {
			return nil, err
		}
	} else {
		b = appendPayload(b, msg.Payload)
	}
	if n := len(b) - 4; n > frameCaps[t] {
		return nil, fmt.Errorf("%w: a %s frame of %d bytes is over its cap of %d bytes", ErrFrameTooLarge, tagNames[t], n, frameCaps[t])
	}
	if cap(b) <= keepMax || t == tagGob {
		fw.buf = b[:0]
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b, nil
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBytes[S string | []byte](b []byte, s S) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendPayload lays out one of the eight control payloads.
func appendPayload(b []byte, v any) []byte {
	switch p := v.(type) {
	case HelloPayload:
		b = appendBytes(b, p.Name)
		b = appendBytes(b, p.Addr)
		b = appendU64(b, uint64(p.Slots))
	case LeaseRequestPayload:
		b = appendU64(b, uint64(p.Want))
	case LeaseGrantPayload:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Leases)))
		for _, l := range p.Leases {
			b = appendBytes(b, l.ID)
			b = appendU64(b, l.Seq)
			b = appendBytes(b, l.Spec)
		}
	case HeartbeatPayload:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Active)))
		for _, id := range p.Active {
			b = appendBytes(b, id)
		}
		b = appendBytes(b, p.Name)
		b = appendBytes(b, p.Addr)
		b = appendU64(b, uint64(p.Slots))
	case ResultPayload:
		b = appendBytes(b, p.ID)
		b = appendU64(b, p.Seq)
		b = appendBytes(b, p.Status)
		b = appendU64(b, uint64(p.ElapsedNS))
		b = appendBytes(b, p.Error)
		b = appendBytes(b, p.Result)
	case EventPayload:
		b = appendBytes(b, p.ID)
		b = appendBytes(b, p.Event)
	case CancelPayload:
		b = appendBytes(b, p.ID)
	case ByePayload:
		b = appendBytes(b, p.Reason)
	}
	return b
}

// frameReader reads one connection's frames through one buffer.
type frameReader struct {
	r     *bufio.Reader // bufSize bytes
	large []byte        // the last frame over r's buffer, unless it was a control frame over keepMax
	gobIn bytes.Reader
	dec   *gob.Decoder // made at the connection's first gob payload
	box   gobBox
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, bufSize)}
}

// readFrame reads and decodes the next frame. The bytes are untrusted: a
// truncated frame, a length over its tag's cap, an unknown tag or a
// payload that does not fill its frame exactly is an error that ends the
// connection, never a panic. A length under the cap that the stream does
// not deliver costs what was delivered, not what it promised
// (FuzzReadFrame holds it to that). The message owns its bytes.
func (fr *frameReader) readFrame() (comm.Message, error) {
	prefix, err := fr.r.Peek(5)
	if err != nil {
		if len(prefix) == 0 {
			return comm.Message{}, err // io.EOF: the stream ended between frames
		}
		return comm.Message{}, midFrame(err)
	}
	n := int(binary.LittleEndian.Uint32(prefix))
	t := tag(prefix[4])
	if t == 0 || t >= numTags {
		return comm.Message{}, fmt.Errorf("rpc: unknown frame tag %d", t)
	}
	if n < headerSize || n > frameCaps[t] {
		return comm.Message{}, fmt.Errorf("rpc: a %s frame of %d bytes is outside [%d, %d]", tagNames[t], n, headerSize, frameCaps[t])
	}
	if 4+n > fr.r.Size() {
		if _, err := fr.r.Discard(4); err != nil {
			return comm.Message{}, err
		}
		frame, err := fr.readLarge(n, t == tagGob)
		if err != nil {
			return comm.Message{}, err
		}
		return fr.decode(frame)
	}
	frame, err := fr.r.Peek(4 + n)
	if err != nil {
		return comm.Message{}, midFrame(err)
	}
	msg, err := fr.decode(frame[4:])
	if _, derr := fr.r.Discard(4 + n); derr != nil {
		return comm.Message{}, derr
	}
	return msg, err
}

// readLarge reads a frame of n bytes that does not fit the read buffer into
// a buffer of its own: the last one's, grown first to keepMax and then no
// faster than bytes arrive, so a length the stream does not deliver costs
// keepMax and what was delivered, not what it promised. The buffer is kept
// for the next frame if it is small or keep is set.
func (fr *frameReader) readLarge(n int, keep bool) ([]byte, error) {
	b := fr.large[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			grown := make([]byte, len(b), min(n, max(2*len(b), keepMax)))
			b = grown[:copy(grown, b)]
		}
		m, err := io.ReadFull(fr.r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+m]
		if err != nil {
			return nil, midFrame(err)
		}
	}
	if cap(b) <= keepMax || keep {
		fr.large = b
	}
	return b, nil
}

// midFrame is the error for a stream that ended inside a frame.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decode turns one frame, tag onward, into the message it carries.
func (fr *frameReader) decode(frame []byte) (comm.Message, error) {
	t := tag(frame[0])
	var h [9]int64
	for i := range h {
		h[i] = int64(binary.LittleEndian.Uint64(frame[1+8*i:]))
	}
	msg := comm.Message{From: comm.NodeID(h[0]), To: comm.NodeID(h[1]), Round: int(h[2]),
		Kind: comm.Kind(h[3]), Size: int(h[4]),
		Span: comm.SpanContext{Trace: uint64(h[5]), Span: uint64(h[6]), Parent: uint64(h[7]), Sent: time.Duration(h[8])}}
	body := frame[headerSize:]
	var err error
	switch t {
	case tagNil:
		if len(body) != 0 {
			err = errors.New("rpc: an empty frame with a payload")
		}
	case tagGob:
		msg.Payload, err = fr.decodeGob(body)
	default:
		msg.Payload, err = decodePayload(t, body)
	}
	if err != nil {
		return comm.Message{}, err
	}
	return msg, nil
}

func (fr *frameReader) decodeGob(body []byte) (any, error) {
	if err := checkGobCounts(body); err != nil {
		return nil, err
	}
	if fr.dec == nil {
		fr.dec = gob.NewDecoder(&fr.gobIn)
	}
	fr.gobIn.Reset(body)
	err := fr.dec.Decode(&fr.box)
	v := fr.box.P
	fr.box.P = nil
	if err == nil && fr.gobIn.Len() != 0 {
		err = fmt.Errorf("rpc: %d bytes after a gob payload", fr.gobIn.Len())
	}
	return v, err
}

// checkGobCounts refuses a gob payload whose messages' byte counts do not
// tile it, before gob allocates for one: gob makes a count's buffer before
// it reads, so a forged count inside a small frame would cost up to gob's
// 10 MiB read chunk.
func checkGobCounts(body []byte) error {
	for len(body) > 0 {
		c, w := uint64(body[0]), 1
		if c > 0x7f {
			w += -int(int8(body[0]))
			if w > 9 || w > len(body) {
				return errors.New("rpc: a malformed gob message count")
			}
			c = 0
			for _, x := range body[1:w] {
				c = c<<8 | uint64(x)
			}
		}
		if c > uint64(len(body)-w) {
			return fmt.Errorf("rpc: a gob message of %d bytes with %d left in its frame", c, len(body)-w)
		}
		body = body[w+int(c):]
	}
	return nil
}

// payloadReader reads a control payload's fields off its frame.
type payloadReader struct {
	b   []byte
	bad bool
}

func (r *payloadReader) u64() uint64 {
	if len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// field returns a length-prefixed field's bytes, still in the frame.
func (r *payloadReader) field() []byte {
	if len(r.b) < 4 {
		r.bad = true
		return nil
	}
	n := binary.LittleEndian.Uint32(r.b)
	if uint64(n) > uint64(len(r.b)-4) {
		r.bad = true
		return nil
	}
	f := r.b[4 : 4+n]
	r.b = r.b[4+n:]
	return f
}

func (r *payloadReader) str() string { return string(r.field()) }

// bytes returns an owned copy of a field; an empty one is nil, as gob
// decoded it.
func (r *payloadReader) bytes() []byte {
	if f := r.field(); len(f) > 0 {
		return bytes.Clone(f)
	}
	return nil
}

// status returns a terminal status without allocating.
func (r *payloadReader) status() string {
	f := r.field()
	switch string(f) {
	case "done":
		return "done"
	case "failed":
		return "failed"
	case "canceled":
		return "canceled"
	}
	return string(f)
}

// count reads a list's length, refusing one the rest of the payload
// cannot hold at least bytes an element.
func (r *payloadReader) count(least int) int {
	if len(r.b) < 4 {
		r.bad = true
		return 0
	}
	n := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	if uint64(n)*uint64(least) > uint64(len(r.b)) {
		r.bad = true
		return 0
	}
	return int(n)
}

// decodePayload reads one of the eight control payloads.
func decodePayload(t tag, body []byte) (any, error) {
	r := payloadReader{b: body}
	var v any
	switch t {
	case tagHello:
		v = HelloPayload{Name: r.str(), Addr: r.str(), Slots: int(r.u64())}
	case tagLeaseRequest:
		v = LeaseRequestPayload{Want: int(r.u64())}
	case tagLeaseGrant:
		var leases []Lease
		if n := r.count(4 + 8 + 4); n > 0 {
			leases = make([]Lease, n)
			for i := range leases {
				leases[i] = Lease{ID: r.str(), Seq: r.u64(), Spec: r.bytes()}
			}
		}
		v = LeaseGrantPayload{Leases: leases}
	case tagHeartbeat:
		var active []string
		if n := r.count(4); n > 0 {
			active = make([]string, n)
			for i := range active {
				active[i] = r.str()
			}
		}
		v = HeartbeatPayload{Active: active, Name: r.str(), Addr: r.str(), Slots: int(r.u64())}
	case tagResult:
		v = ResultPayload{ID: r.str(), Seq: r.u64(), Status: r.status(), ElapsedNS: int64(r.u64()),
			Error: r.str(), Result: r.bytes()}
	case tagEvent:
		v = EventPayload{ID: r.str(), Event: r.bytes()}
	case tagCancel:
		v = CancelPayload{ID: r.str()}
	case tagBye:
		v = ByePayload{Reason: r.str()}
	}
	if r.bad || len(r.b) != 0 {
		return nil, fmt.Errorf("rpc: a malformed %s payload", tagNames[t])
	}
	return v, nil
}
