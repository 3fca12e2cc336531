// Package wire defines the binary frame format the goroutine-based
// distributed runtime (internal/worker) exchanges between workers: per sender,
// receiver and round one frame — a batch header, then each message's payload
// alone: fp32 values, the precision of the fp32 tensors a gloo/NCCL transport
// carries in the paper's substrate (ours are float64, narrowed here once), or
// quantized levels. A message's unit is implied by its position: both
// ends walk the pair's candidates in one order (exchange.Walk), so the k-th
// message of a frame is candidate k, or under sampling the k-th one its
// presence bitmap marks.
//
// Every cross-partition value of every runtime is serialized into a byte
// slice here and parsed again on the receiving worker; the bytes the traffic
// accounting reports are the lengths of those slices, asserted equal in tests
// to the format's arithmetic (a 14-byte header plus the bitmap per non-empty
// frame, then 4 bytes a value, or ceil(n·bits/8) + 8 a message).
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

// Kind is a caller's label for a message; it is not encoded.
type Kind uint8

// KindNode labels one node's payload (vanilla / O2O traffic).
const KindNode Kind = 1

// Message is one unit of cross-partition traffic. Only Payload is encoded:
// Kind and Target (a node or plan-group index) are the caller's bookkeeping.
type Message struct {
	Kind    Kind
	Target  int32
	Payload []float64
}

// FrameHeaderBytes is the batch header size: bits(1) + flags(1) + sender(4) +
// width(4) + count(4).
const FrameHeaderBytes = 14

// Header flag bits; decoders reject any other. FlagAdaptive: each message
// carries its own width in one extra metadata byte after lo/step (the extra
// byte AdaQP-style schemes ship), bounded by the header's bits. FlagSampled:
// a presence bitmap of ceil(count/8) bytes follows the header, bit i
// (little-endian within a byte) set iff candidate i has a message.
const (
	FlagAdaptive = 0x01
	FlagSampled  = 0x02
)

// Frame is a frame's batch header. Width is every message's value count;
// Bits the quantization width (0: fp32), under Adaptive the messages' bound;
// Count the candidate units of the pair's round, each with a message in
// candidate order unless Sampled.
type Frame struct {
	Sender             int32
	Width, Bits, Count int
	Adaptive, Sampled  bool
}

// ValueBytes is the wire size of one unquantized payload value (fp32).
const ValueBytes = 4

// reserve extends dst by n bytes, growing it at most once, and returns it
// along with the new bytes (not zeroed: callers write every one).
func reserve(dst []byte, n int) (all, added []byte) {
	start := len(dst)
	all = slices.Grow(dst, n)[:start+n]
	return all, all[start:]
}

// Batch accumulates the messages bound for one destination worker in one
// round as a single framed buffer (the transport-level batching gloo
// performs). Begin declares the frame; the first Add into a batch without one
// opens an unsampled frame from sender 0 whose candidates are its messages.
// A frame holds one width and one codec: an Add of another panics.
type Batch struct {
	buf               []byte
	frame             Frame
	implicit          bool // opened by an Add: Count follows the messages
	count, room, last int  // messages, messages the frame admits next, the last Present
}

// Begin empties the batch, retaining its buffer, and opens a frame with
// header f. An f no decoder accepts panics.
func (b *Batch) Begin(f Frame) {
	if f.Width < 1 || f.Count < 0 || f.Bits < 0 || f.Bits > 16 || f.Adaptive && f.Bits == 0 {
		panic(fmt.Sprintf("wire: invalid frame %+v", f))
	}
	*b = Batch{buf: b.buf[:0], frame: f, room: f.Count, last: -1}
	bitmap := 0
	if f.Sampled {
		bitmap, b.room = (f.Count+7)/8, 0
	}
	var h []byte
	b.buf, h = reserve(b.buf, FrameHeaderBytes+bitmap)
	h[0], h[1] = byte(f.Bits), 0
	if f.Adaptive {
		h[1] |= FlagAdaptive
	}
	if f.Sampled {
		h[1] |= FlagSampled
	}
	binary.LittleEndian.PutUint32(h[2:], uint32(f.Sender))
	binary.LittleEndian.PutUint32(h[6:], uint32(f.Width))
	binary.LittleEndian.PutUint32(h[10:], uint32(f.Count))
	clear(h[FrameHeaderBytes:])
}

// Present marks candidate i as the next message's unit. A sampled frame
// needs one per message, at ascending i below its count; anything else
// panics.
func (b *Batch) Present(i int) {
	if !b.frame.Sampled || b.room != 0 || i <= b.last || i >= b.frame.Count {
		panic(fmt.Sprintf("wire: Present(%d) after %d on frame %+v", i, b.last, b.frame))
	}
	b.buf[FrameHeaderBytes+i>>3] |= 1 << (i & 7)
	b.room, b.last = 1, i
}

// admit checks one message of width values at a codec against the open frame
// — opening an implicit one if none is, and extending it — and counts it.
func (b *Batch) admit(width, bits int, adaptive bool) {
	if len(b.buf) == 0 {
		f := Frame{Width: width, Bits: bits, Adaptive: adaptive}
		if adaptive {
			f.Bits = 16
		}
		b.Begin(f)
		b.implicit = true
	}
	f := &b.frame
	if b.implicit {
		f.Count++
		binary.LittleEndian.PutUint32(b.buf[10:], uint32(f.Count))
		b.room++
	}
	if b.room == 0 || width != f.Width || adaptive != f.Adaptive || bits != f.Bits && !(adaptive && bits <= f.Bits) {
		panic(fmt.Sprintf("wire: message %d (%d values, bits=%d adaptive=%v) does not fit frame %+v", b.count, width, bits, adaptive, *f))
	}
	b.room--
	b.count++
}

// Add encodes m's payload as fp32 values.
func (b *Batch) Add(m *Message) {
	b.admit(len(m.Payload), 0, false)
	var p []byte
	b.buf, p = reserve(b.buf, ValueBytes*len(m.Payload))
	for _, v := range m.Payload {
		binary.LittleEndian.PutUint32(p, math.Float32bits(float32(v)))
		p = p[ValueBytes:]
	}
}

// Repeat appends a copy of the message at buf[from:to] — one this frame
// already holds, bracketed by Size before and after it was added — as the
// next message: the bytes an Add of the same payload at the same codec would
// write, without encoding them again. It is admitted like any message
// (Present first in a sampled frame); a span that is not one message of the
// open frame panics.
func (b *Batch) Repeat(from, to int) {
	f := &b.frame
	bits := f.Bits
	if f.Adaptive && from >= 0 && from+8 < len(b.buf) {
		bits = int(b.buf[from+8])
	}
	if from < b.messagesStart() || to > len(b.buf) || to-from != messageBytes(f.Width, bits, f.Adaptive) || f.Adaptive && bits == 0 {
		panic(fmt.Sprintf("wire: span [%d, %d) of %d bytes is not a message of frame %+v", from, to, len(b.buf), *f))
	}
	b.admit(f.Width, bits, f.Adaptive)
	b.buf = append(b.buf, b.buf[from:to]...)
}

// messageBytes is the encoded size of one message of width values at a codec:
// fp32 values, or the quantised levels behind lo/step and, when adaptive, the
// width byte.
func messageBytes(width, bits int, adaptive bool) int {
	switch {
	case bits == 0:
		return ValueBytes * width
	case adaptive:
		return 9 + (width*bits+7)/8
	}
	return 8 + (width*bits+7)/8
}

// messagesStart is the offset of the open frame's first message: past the
// header and, when sampled, the presence bitmap.
func (b *Batch) messagesStart() int {
	if b.frame.Sampled {
		return FrameHeaderBytes + (b.frame.Count+7)/8
	}
	return FrameHeaderBytes
}

// Size returns the length of the frame encoded so far; it brackets a message
// for Repeat.
func (b *Batch) Size() int { return len(b.buf) }

// Len returns the number of messages in the batch.
func (b *Batch) Len() int { return b.count }

// Bytes returns the encoded frame, nil when it holds no message: a pair with
// nothing to send ships a zero-length frame.
func (b *Batch) Bytes() []byte {
	if b.count == 0 {
		return nil
	}
	return b.buf
}

// Reset empties the batch while retaining its encode buffer, so a persistent
// worker can reuse one Batch per peer across rounds without reallocating.
func (b *Batch) Reset() { *b = Batch{buf: b.buf[:0]} }

// Quantized payload support: a quantized message stores its compress.Grid
// metadata as two fp32s (lo, step), under FlagAdaptive its width byte, then
// the bit-packed little-endian levels. The grid owns the arithmetic in both
// directions (which level a value takes, what a level or a non-finite payload
// reconstructs to); this package frames and packs.

// levelChunk is how many levels the encoder and the decoder stage on their
// stacks between the grid's slice operations and a message's bytes. It is a
// multiple of 8, so a chunk starts on a byte boundary at every width, and
// small, because the stack array is zeroed once per message.
const levelChunk = 64

// encodeQuantized appends m's payload with bits-wide affine quantization
// (1 ≤ bits ≤ 16) to dst: ceil(n·bits/8) + 8 bytes, + 1 for the width byte
// when adaptive. The payload is not modified. A non-nil roundtrip (len(m.Payload) values)
// receives what the receiver will reconstruct, which senders running residual
// error feedback need exactly.
func encodeQuantized(dst []byte, m *Message, bits int, adaptive bool, roundtrip []float64) []byte {
	payload := m.Payload
	if roundtrip != nil && len(roundtrip) != len(payload) {
		panic(fmt.Sprintf("wire: roundtrip len %d, payload len %d", len(roundtrip), len(payload)))
	}
	grid := compress.NewGrid(payload, bits) // panics on a width outside 1..16
	dst, b := reserve(dst, messageBytes(len(payload), bits, adaptive))
	lo, step := grid.Meta()
	binary.LittleEndian.PutUint32(b, math.Float32bits(lo))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(step))
	b = b[8:]
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

// AddQuantizedRoundtrip encodes m with bits-wide quantization — at a
// per-message width when adaptive — and, when roundtrip is non-nil, writes
// the receiver-reconstructed values into it.
func (b *Batch) AddQuantizedRoundtrip(m *Message, bits int, adaptive bool, roundtrip []float64) {
	b.admit(len(m.Payload), bits, adaptive)
	b.buf = encodeQuantized(b.buf, m, bits, adaptive, roundtrip)
}

// AddQuantized encodes m into the batch with b-bit quantization.
func (b *Batch) AddQuantized(m *Message, bits int) { b.AddQuantizedRoundtrip(m, bits, false, nil) }

// AddAdaptive encodes m into the batch at a per-message adaptive width.
func (b *Batch) AddAdaptive(m *Message, bits int) { b.AddQuantizedRoundtrip(m, bits, true, nil) }
