// Package wire defines the binary message format the goroutine-based
// distributed runtime (internal/worker) exchanges between workers: a fixed
// header followed by an fp32 payload vector, mirroring the fp32 tensors a
// gloo/NCCL transport would carry.
//
// Every cross-partition value of every runtime is serialized into a byte
// slice here and parsed again on the receiving worker; the bytes the traffic
// accounting reports are the lengths of those slices, asserted equal in tests
// to the format's arithmetic (16-byte header, 4 bytes a value, or
// ceil(n·bits/8) + 8).
//
// This package frames and packs; it holds no quantisation arithmetic. A
// quantized payload is ranged, levelled and reconstructed a chunk of levels at
// a time by the slice operations of compress.Grid and compress.WireGrid
// (NewGrid, Levels, Values, AXPY); what is here moves those levels in and out
// of a message's bytes. The per-value decoder the streaming Decoder is checked
// against lives with the tests (reference_test.go).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
// per-message state, the same extra byte AdaQP-style schemes ship
// ((n·bits+7)/8 + 9 vs + 8). Decoders reject any
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
	dst, b := reserve(dst, EncodedSize(len(m.Payload)))
	putHeader(b, m, 0, 0)
	b = b[HeaderBytes:]
	for _, v := range m.Payload {
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(v)))
		b = b[ValueBytes:]
	}
	return dst
}

// reserve extends dst by n bytes, growing it at most once, and returns it
// along with the new bytes (not zeroed: callers write every one).
func reserve(dst []byte, n int) (all, added []byte) {
	start := len(dst)
	all = slices.Grow(dst, n)[:start+n]
	return all, all[start:]
}

// putHeader writes m's header to the front of b, with the given bit-width and
// flags bytes.
func putHeader(b []byte, m *Message, bits, flags byte) {
	_ = b[HeaderBytes-1]
	b[0], b[1], b[2], b[3] = byte(m.Kind), bits, flags, 0
	binary.LittleEndian.PutUint32(b[4:], uint32(m.SrcPart))
	binary.LittleEndian.PutUint32(b[8:], uint32(m.Target))
	binary.LittleEndian.PutUint32(b[12:], uint32(len(m.Payload)))
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

// levelChunk is how many levels the encoder and the decoder stage on their
// stacks between the grid's slice operations and a message's bytes. It is a
// multiple of 8, so a chunk starts on a byte boundary at every width, and
// small, because the stack array is zeroed once per message.
const levelChunk = 64

// encodeQuantized serializes m with bits-wide affine quantization of the
// payload (1 ≤ bits ≤ 16), which is not modified. adaptive marks the width as
// a per-message choice (FlagAdaptive set, width repeated in the metadata). A
// non-nil roundtrip (len(m.Payload) values) receives what the receiver will
// reconstruct, which senders running residual error feedback need exactly.
func encodeQuantized(dst []byte, m *Message, bits int, adaptive bool, roundtrip []float64) []byte {
	payload := m.Payload
	if roundtrip != nil && len(roundtrip) != len(payload) {
		panic(fmt.Sprintf("wire: roundtrip len %d, payload len %d", len(roundtrip), len(payload)))
	}
	grid := compress.NewGrid(payload, bits) // panics on a width outside 1..16
	size, flags := EncodedSizeQuantized(len(payload), bits), byte(0)
	if adaptive {
		size, flags = EncodedSizeAdaptive(len(payload), bits), FlagAdaptive
	}
	dst, b := reserve(dst, size)
	putHeader(b, m, byte(bits), flags)
	lo, step := grid.Meta()
	binary.LittleEndian.PutUint32(b[HeaderBytes:], math.Float32bits(lo))
	binary.LittleEndian.PutUint32(b[HeaderBytes+4:], math.Float32bits(step))
	b = b[HeaderBytes+8:]
	if adaptive {
		b[0] = byte(bits)
		b = b[1:]
	}
	var levels [levelChunk]uint16
	for off := 0; off < len(payload); off += levelChunk {
		c := min(len(payload)-off, levelChunk)
		var rt []float64
		if roundtrip != nil {
			rt = roundtrip[off : off+c]
		}
		grid.Levels(levels[:c], payload[off:off+c], rt)
		packLevels(b[off*bits/8:], levels[:c], bits)
	}
	return dst
}

// packLevels bit-packs levels, bits wide each, little-endian from the front of
// b, which holds at least ceil(len(levels)·bits/8) bytes. The spare high bits
// of a last partial byte are zero.
func packLevels(b []byte, levels []uint16, bits int) {
	switch bits {
	case 8:
		b = b[:len(levels)]
		for i, q := range levels {
			b[i] = byte(q)
		}
	case 4:
		pairs := len(levels) / 2
		b = b[:(len(levels)+1)/2]
		for i := 0; i < pairs; i++ {
			b[i] = byte(levels[2*i] | levels[2*i+1]<<4)
		}
		if len(levels)&1 != 0 {
			b[pairs] = byte(levels[len(levels)-1])
		}
	default:
		var acc uint64
		var accBits uint
		di := 0
		for _, q := range levels {
			acc |= uint64(q) << accBits
			accBits += uint(bits)
			for accBits >= 8 {
				b[di] = byte(acc)
				di++
				acc >>= 8
				accBits -= 8
			}
		}
		if accBits > 0 {
			b[di] = byte(acc)
		}
	}
}

// unpackLevels is packLevels' inverse: it reads len(levels) levels, bits wide
// each, off the front of b. Every quantized decode goes through it.
func unpackLevels(levels []uint16, b []byte, bits int) {
	switch bits {
	case 8:
		b = b[:len(levels)]
		for i, q := range b {
			levels[i] = uint16(q)
		}
	case 4:
		pairs := len(levels) / 2
		b = b[:(len(levels)+1)/2]
		for i := 0; i < pairs; i++ {
			levels[2*i], levels[2*i+1] = uint16(b[i]&0xf), uint16(b[i]>>4)
		}
		if len(levels)&1 != 0 {
			levels[len(levels)-1] = uint16(b[pairs] & 0xf)
		}
	default:
		var acc uint64
		var accBits uint
		di := 0
		mask := uint64(1)<<uint(bits) - 1
		for i := range levels {
			for accBits < uint(bits) {
				acc |= uint64(b[di]) << accBits
				di++
				accBits += 8
			}
			levels[i] = uint16(acc & mask)
			acc >>= uint(bits)
			accBits -= uint(bits)
		}
	}
}

// readGrid parses the lo/step metadata pair at the front of b.
func readGrid(b []byte) compress.WireGrid {
	return compress.NewWireGrid(
		math.Float32frombits(binary.LittleEndian.Uint32(b)),
		math.Float32frombits(binary.LittleEndian.Uint32(b[4:])))
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
