package fl

import (
	"errors"
	"fmt"
	"sync/atomic"

	"aergia/internal/codec"
	"aergia/internal/comm"
	"aergia/internal/nn"
)

// encodedMetaSize is the envelope overhead charged per encoded payload
// (codec name tag plus section length framing) when computing the
// on-the-wire Message.Size.
const encodedMetaSize = 16

// EncodedWeights is the codec-encoded form of a weight snapshot: each
// section holds the wire bytes of the *delta* against the round's global
// base (the model the federator dispatched), produced by the run's codec.
// Receivers decode with their own copy of the base, so only the delta —
// quantized or sparsified — crosses the network. The zero value means "raw
// payload" (codec none, the PR 4 wire format).
type EncodedWeights struct {
	// Codec names the codec that produced the sections; receivers reject a
	// mismatch with the run's configured codec.
	Codec string
	// Feature and Classifier carry the encoded per-section deltas.
	// Classifier is empty for feature-only payloads (offload results).
	Feature    []byte
	Classifier []byte
}

// IsZero reports whether the payload is raw (no codec applied).
func (e EncodedWeights) IsZero() bool { return e.Codec == "" }

// WireSize is the true on-the-wire size of the encoded payload in bytes.
func (e EncodedWeights) WireSize() int {
	return encodedMetaSize + len(e.Feature) + len(e.Classifier)
}

// encodeSection encodes vals as a delta against base through enc. The
// delta is staged in a borrowed work vector; the wire bytes are freshly
// allocated because the message owns them until delivery (a re-ship must
// equal the first shipment).
func encodeSection(enc codec.Codec, vals, base []float64) ([]byte, error) {
	if len(vals) != len(base) {
		return nil, fmt.Errorf("fl: encode: %d values against a %d-value base", len(vals), len(base))
	}
	bp := codec.GetScratch(len(vals))
	defer codec.PutScratch(bp)
	delta := *bp
	for i, v := range vals {
		delta[i] = v - base[i]
	}
	return enc.AppendEncode(nil, delta)
}

// decodeSection decodes a delta section and applies it to base, returning
// the reconstructed absolute values in dst, resliced to base's length when
// its capacity allows (nil, or too short, allocates). The architecture sizes
// the output, never the wire: DecodeInto refuses a header that claims
// another length before it writes, and on success has written every index,
// so what dst held never shows. The add runs over every index — base + 0.0
// turns a stored -0 into +0, which copying base and scattering the kept
// entries would not.
func decodeSection(dec codec.Codec, data []byte, base, dst []float64) ([]float64, error) {
	if cap(dst) < len(base) {
		dst = make([]float64, len(base))
	}
	out := dst[:len(base)]
	if err := dec.DecodeInto(out, data); err != nil {
		return nil, err
	}
	for i, b := range base {
		out[i] = b + out[i]
	}
	return out, nil
}

// decodeWeights reconstructs a full snapshot from an encoded update into
// dst's vectors (decodeSection).
func decodeWeights(dec codec.Codec, enc EncodedWeights, base, dst nn.Weights) (nn.Weights, error) {
	if enc.Codec != dec.Name() {
		return nn.Weights{}, fmt.Errorf("fl: payload codec %q, run codec %q", enc.Codec, dec.Name())
	}
	feature, err := decodeSection(dec, enc.Feature, base.Feature, dst.Feature)
	if err != nil {
		return nn.Weights{}, fmt.Errorf("fl: feature section: %w", err)
	}
	classifier, err := decodeSection(dec, enc.Classifier, base.Classifier, dst.Classifier)
	if err != nil {
		return nn.Weights{}, fmt.Errorf("fl: classifier section: %w", err)
	}
	return nn.Weights{Feature: feature, Classifier: classifier}, nil
}

// decodeUpdate returns the update a payload carries, its weights decoded
// against base when it came encoded. base is nil when the receiver no
// longer holds the model the update was trained from. Either way the
// receiver owns u.Weights on success and returns it to g (putWeights) once
// nothing reads the update: an encoded update is decoded into a vector
// leased from g, and a raw one is the vector the sender leased, shipped by
// reference (or, over TCP, the receiver's own gob-decoded copy).
func decodeUpdate(dec codec.Codec, p UpdatePayload, base *nn.Weights, g *laneGroup) (Update, error) {
	u := p.Update
	switch {
	case p.Encoded.IsZero():
		return u, nil
	case dec == nil:
		return u, errors.New("encoded on a codec-free run")
	case base == nil:
		return u, fmt.Errorf("no base v%d to decode against", u.Round)
	}
	dst := g.takeWeights()
	w, err := decodeWeights(dec, p.Encoded, *base, dst)
	if err != nil {
		g.putWeights(dst)
		return u, fmt.Errorf("decode: %w", err)
	}
	u.Weights = w
	return u, nil
}

// encodeWeights encodes a full snapshot as deltas against base. encF and
// encC are the per-section encoders — distinct instances when they carry
// residual state (the update stream), the same one-shot codec otherwise.
func encodeWeights(name string, encF, encC codec.Codec, w, base nn.Weights) (EncodedWeights, error) {
	feature, err := encodeSection(encF, w.Feature, base.Feature)
	if err != nil {
		return EncodedWeights{}, fmt.Errorf("fl: feature section: %w", err)
	}
	classifier, err := encodeSection(encC, w.Classifier, base.Classifier)
	if err != nil {
		return EncodedWeights{}, fmt.Errorf("fl: classifier section: %w", err)
	}
	return EncodedWeights{Codec: name, Feature: feature, Classifier: classifier}, nil
}

// ---------------------------------------------------------------------------
// Bandwidth accounting.

// Bandwidth counts the bytes a run puts on the wire, split by traffic
// class. One instance is shared by every actor of a cluster (Topology.Build
// wires it); counters are atomic because wall-clock transports deliver
// concurrently. All methods are nil-receiver safe, so hand-built actors in
// tests need no counter.
type Bandwidth struct {
	dispatch atomic.Int64 // federator -> client global-model shipments
	update   atomic.Int64 // client -> federator trained updates
	offload  atomic.Int64 // weak -> strong frozen-model shipments
	result   atomic.Int64 // strong -> federator feature returns
	control  atomic.Int64 // profiles, schedules, and other small messages
}

// Count records one sent message. It is called at every actor send site
// with the message's true encoded Size, so the counters measure exactly
// what the transports charge for (sim bandwidth delay) or move (TCP). Each
// count also feeds the process-wide aergia_bandwidth_bytes_total family, so
// a /metrics scrape mid-run sees the ledger move live.
func (b *Bandwidth) Count(kind comm.Kind, size int) {
	if b == nil {
		return
	}
	m := flm()
	switch kind {
	case comm.KindTrain:
		b.dispatch.Add(int64(size))
		m.bwDispatch.Add(float64(size))
	case comm.KindUpdate:
		b.update.Add(int64(size))
		m.bwUpdate.Add(float64(size))
	case comm.KindOffload:
		b.offload.Add(int64(size))
		m.bwOffload.Add(float64(size))
	case comm.KindOffloadResult:
		b.result.Add(int64(size))
		m.bwResult.Add(float64(size))
	default:
		b.control.Add(int64(size))
		m.bwControl.Add(float64(size))
	}
}

// send counts msg and sends it; every actor send goes through here.
func (b *Bandwidth) send(env comm.Env, msg comm.Message) {
	b.Count(msg.Kind, msg.Size)
	env.Send(msg)
}

// Snapshot returns the current totals.
func (b *Bandwidth) Snapshot() BandwidthStats {
	if b == nil {
		return BandwidthStats{}
	}
	s := BandwidthStats{
		DispatchBytes: b.dispatch.Load(),
		UpdateBytes:   b.update.Load(),
		OffloadBytes:  b.offload.Load(),
		ResultBytes:   b.result.Load(),
		ControlBytes:  b.control.Load(),
	}
	s.TotalBytes = s.DispatchBytes + s.UpdateBytes + s.OffloadBytes + s.ResultBytes + s.ControlBytes
	return s
}

// BandwidthStats is the per-run bandwidth report: how many bytes each
// traffic class put on the wire, as charged by the transports. On the sim
// transport the numbers are exact and deterministic; over TCP late actor
// timers may still send after the run completes, so they are a lower
// bound taken at run completion.
type BandwidthStats struct {
	// DispatchBytes is the downlink: global models shipped to clients.
	DispatchBytes int64 `json:"dispatch_bytes"`
	// UpdateBytes is the uplink: trained (possibly encoded) updates.
	UpdateBytes int64 `json:"update_bytes"`
	// OffloadBytes is weak->strong frozen-model shipments.
	OffloadBytes int64 `json:"offload_bytes"`
	// ResultBytes is strong->federator feature returns.
	ResultBytes int64 `json:"result_bytes"`
	// ControlBytes is everything else (profiles, schedules).
	ControlBytes int64 `json:"control_bytes"`
	// TotalBytes sums every class.
	TotalBytes int64 `json:"total_bytes"`
}

// UpdateTraffic is the model-update traffic the codecs compress: updates
// plus offload shipments plus feature returns — the "total update bytes"
// the bandwidth experiment and examples/distributed report.
func (s BandwidthStats) UpdateTraffic() int64 {
	return s.UpdateBytes + s.OffloadBytes + s.ResultBytes
}
