// Package wire defines the binary message format the goroutine-based
// distributed runtime (internal/worker) exchanges between workers: a fixed
// header followed by an fp32 payload vector, mirroring the fp32 tensors a
// gloo/NCCL transport would carry.
//
// The sequential engine in internal/dist *accounts* bytes analytically; this
// package makes them real — every cross-partition value is serialized into a
// byte slice and parsed again on the receiving worker, and the byte sizes
// are asserted equal to the analytic accounting in tests.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"scgnn/internal/compress"
)

// Kind discriminates message semantics at the receiver.
type Kind uint8

const (
	// KindNode carries one node's payload (vanilla / O2O traffic).
	// Target is the global destination node id.
	KindNode Kind = iota + 1
	// KindGroup carries one fused semantic message. Target is the group's
	// index within the (src→dst) plan.
	KindGroup
)

// HeaderBytes is the encoded header size: kind(1) + bits(1) + flags(1) +
// pad(1) + src(4) + target(4) + length(4).
const HeaderBytes = 16

// FlagAdaptive (header flags byte, bit 0) marks a payload quantized at a
// per-message adaptive width. Adaptive messages carry one extra metadata
// byte — the chosen width — after the lo/step pair: a fixed-width receiver
// knows its width from configuration, but an adaptive width is genuinely
// per-message state, the same extra byte AdaQP-style schemes ship and the
// analytic engine charges ((n·bits+7)/8 + 9 vs + 8). Decoders reject any
// other flag bit, and reject adaptive messages whose metadata width byte
// disagrees with the header's bits field.
const FlagAdaptive = 0x01

// Message is one unit of cross-partition traffic.
type Message struct {
	Kind    Kind
	SrcPart int32 // sending worker
	Target  int32 // node id (KindNode) or plan-group index (KindGroup)
	Payload []float64
}

// ValueBytes is the wire size of one unquantized payload value (fp32).
const ValueBytes = 4

// EncodedSize returns the wire size of a message with n payload values.
func EncodedSize(n int) int { return HeaderBytes + ValueBytes*n }

// Encode serializes m, appending to dst (which may be nil) and returning the
// extended slice. Payload values are truncated to fp32 — the same precision
// the paper's training exchanges.
func Encode(dst []byte, m *Message) []byte {
	var hdr [HeaderBytes]byte
	hdr[0] = byte(m.Kind)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.SrcPart))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m.Target))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(m.Payload)))
	dst = append(dst, hdr[:]...)
	var buf [4]byte
	for _, v := range m.Payload {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(float32(v)))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// Decode parses one message from the front of b, returning the message and
// the remaining bytes. The payload slice is freshly allocated.
//
// Decode never trusts the length or bit-width fields: the declared payload
// size is validated against the remaining buffer (with the arithmetic done
// in int64, so a hostile length cannot overflow the check) before any
// allocation, and bit widths outside the encoder's 1..16 range are rejected
// — so a corrupt or truncated buffer yields an error, never a panic or an
// attacker-sized allocation.
func Decode(b []byte) (*Message, []byte, error) {
	if len(b) < HeaderBytes {
		return nil, b, fmt.Errorf("wire: short header (%d bytes)", len(b))
	}
	kind := Kind(b[0])
	if kind != KindNode && kind != KindGroup {
		return nil, b, fmt.Errorf("wire: unknown kind %d", b[0])
	}
	if b[2]&^FlagAdaptive != 0 {
		return nil, b, fmt.Errorf("wire: unknown flags %#x", b[2])
	}
	adaptive := b[2]&FlagAdaptive != 0
	src := int32(binary.LittleEndian.Uint32(b[4:]))
	target := int32(binary.LittleEndian.Uint32(b[8:]))
	n := int(binary.LittleEndian.Uint32(b[12:]))
	if bits := int(b[1]); bits > 0 {
		if bits > 16 {
			return nil, b, fmt.Errorf("wire: quantized bits %d out of 1..16", bits)
		}
		meta := 8
		if adaptive {
			meta = 9
		}
		need := int64(HeaderBytes) + int64(meta) + (int64(n)*int64(bits)+7)/8
		if int64(len(b)) < need {
			return nil, b, fmt.Errorf("wire: truncated quantized payload: have %d bytes, need %d", len(b), need)
		}
		if adaptive && int(b[HeaderBytes+8]) != bits {
			return nil, b, fmt.Errorf("wire: adaptive width byte %d disagrees with header bits %d", b[HeaderBytes+8], bits)
		}
		return decodeQuantized(b, kind, bits, meta, src, target, n)
	}
	if adaptive {
		return nil, b, fmt.Errorf("wire: adaptive flag on fp32 payload")
	}
	if need := int64(HeaderBytes) + 4*int64(n); int64(len(b)) < need {
		return nil, b, fmt.Errorf("wire: truncated payload: have %d bytes, need %d", len(b), need)
	}
	total := EncodedSize(n)
	payload := make([]float64, n)
	off := HeaderBytes
	for i := range payload {
		bits := binary.LittleEndian.Uint32(b[off:])
		payload[i] = float64(math.Float32frombits(bits))
		off += 4
	}
	return &Message{Kind: kind, SrcPart: src, Target: target, Payload: payload}, b[total:], nil
}

// Batch accumulates encoded messages bound for one destination worker so a
// round's traffic ships as a single framed buffer (the transport-level
// batching gloo performs).
type Batch struct {
	buf   []byte
	count int
}

// Add encodes m into the batch.
func (b *Batch) Add(m *Message) {
	b.buf = Encode(b.buf, m)
	b.count++
}

// Len returns the number of messages in the batch.
func (b *Batch) Len() int { return b.count }

// Bytes returns the encoded buffer (nil when empty).
func (b *Batch) Bytes() []byte { return b.buf }

// Reset empties the batch while retaining its encode buffer, so a persistent
// worker can reuse one Batch per peer across rounds without reallocating.
func (b *Batch) Reset() {
	b.buf = b.buf[:0]
	b.count = 0
}

// DecodeAll parses every message in an encoded batch buffer.
func DecodeAll(buf []byte) ([]*Message, error) {
	var out []*Message
	for len(buf) > 0 {
		m, rest, err := Decode(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		buf = rest
	}
	return out, nil
}

// Quantized payload support: header byte 1 carries the bit width (0 means
// fp32). A quantized message stores its compress.Grid metadata as two fp32s
// (lo, step) followed by the bit-packed little-endian levels. The grid owns
// the arithmetic in both directions (which level a value takes, what a level
// or a non-finite payload reconstructs to); this package frames and packs.

// EncodedSizeQuantized returns the wire size of an n-value payload at the
// given bit width.
func EncodedSizeQuantized(n, bits int) int {
	return HeaderBytes + 8 + (n*bits+7)/8
}

// EncodedSizeAdaptive returns the wire size of an n-value adaptively
// quantized payload at the given bit width (one extra metadata byte carries
// the per-message width).
func EncodedSizeAdaptive(n, bits int) int {
	return HeaderBytes + 9 + (n*bits+7)/8
}

// encodeQuantized serializes m with bits-wide affine quantization of the
// payload (1 ≤ bits ≤ 16), which is not modified. adaptive marks the width as
// a per-message choice (FlagAdaptive set, width repeated in the metadata). A
// non-nil roundtrip (len(m.Payload) values) receives what the receiver will
// reconstruct, which senders running residual error feedback need exactly.
func encodeQuantized(dst []byte, m *Message, bits int, adaptive bool, roundtrip []float64) []byte {
	if roundtrip != nil && len(roundtrip) != len(m.Payload) {
		panic(fmt.Sprintf("wire: roundtrip len %d, payload len %d", len(roundtrip), len(m.Payload)))
	}
	grid := compress.NewGrid(m.Payload, bits)
	rx := compress.NewWireGrid(grid.Meta()) // what the receiver will hold
	var hdr [HeaderBytes + 9]byte
	hdr[0] = byte(m.Kind)
	hdr[1] = byte(bits)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.SrcPart))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m.Target))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(m.Payload)))
	lo, step := grid.Meta()
	binary.LittleEndian.PutUint32(hdr[HeaderBytes:], math.Float32bits(lo))
	binary.LittleEndian.PutUint32(hdr[HeaderBytes+4:], math.Float32bits(step))
	n := HeaderBytes + 8
	if adaptive {
		hdr[2] = FlagAdaptive
		hdr[n] = byte(bits)
		n++
	}
	dst = append(dst, hdr[:n]...)

	// Bit-pack the level indices little-endian.
	var acc uint64
	var accBits uint
	for i, v := range m.Payload {
		q := grid.Level(v)
		if roundtrip != nil {
			roundtrip[i] = rx.Value(q)
		}
		acc |= q << accBits
		accBits += uint(bits)
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// readGrid parses the lo/step metadata pair at the front of b.
func readGrid(b []byte) compress.WireGrid {
	return compress.NewWireGrid(
		math.Float32frombits(binary.LittleEndian.Uint32(b)),
		math.Float32frombits(binary.LittleEndian.Uint32(b[4:])))
}

// decodeQuantized parses a quantized message body. The caller (Decode) has
// already validated bits ∈ 1..16, the metadata size, and that b holds the
// full declared payload.
func decodeQuantized(b []byte, kind Kind, bits, meta int, src, target int32, n int) (*Message, []byte, error) {
	total := HeaderBytes + meta + (n*bits+7)/8
	grid := readGrid(b[HeaderBytes:])
	payload := make([]float64, n)
	data := b[HeaderBytes+meta : total]
	var acc uint64
	var accBits uint
	di := 0
	mask := uint64(1)<<uint(bits) - 1
	for i := 0; i < n; i++ {
		for accBits < uint(bits) {
			acc |= uint64(data[di]) << accBits
			di++
			accBits += 8
		}
		q := acc & mask
		acc >>= uint(bits)
		accBits -= uint(bits)
		payload[i] = grid.Value(q)
	}
	return &Message{Kind: kind, SrcPart: src, Target: target, Payload: payload}, b[total:], nil
}

// AddQuantized encodes m into the batch with b-bit quantization.
func (b *Batch) AddQuantized(m *Message, bits int) {
	b.buf = encodeQuantized(b.buf, m, bits, false, nil)
	b.count++
}

// AddQuantizedRoundtrip encodes m with b-bit quantization and writes the
// receiver-reconstructed values into roundtrip.
func (b *Batch) AddQuantizedRoundtrip(m *Message, bits int, roundtrip []float64) {
	b.buf = encodeQuantized(b.buf, m, bits, false, roundtrip)
	b.count++
}

// AddAdaptive encodes m into the batch at a per-message adaptive width.
func (b *Batch) AddAdaptive(m *Message, bits int) {
	b.buf = encodeQuantized(b.buf, m, bits, true, nil)
	b.count++
}

// AddAdaptiveRoundtrip encodes m at a per-message adaptive width and writes
// the receiver-reconstructed values into roundtrip.
func (b *Batch) AddAdaptiveRoundtrip(m *Message, bits int, roundtrip []float64) {
	b.buf = encodeQuantized(b.buf, m, bits, true, roundtrip)
	b.count++
}
