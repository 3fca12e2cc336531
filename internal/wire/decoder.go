package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"scgnn/internal/compress"
)

// ErrMalformed marks every error the decoder returns.
var ErrMalformed = errors.New("wire: malformed frame")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
}

// Header describes one message, yielded by Decoder.Next before the payload is
// materialized: the candidate unit it stands for and its value count.
type Header struct{ Index, N int }

// Decoder iterates the messages of an encoded frame in place: no []*Message
// slice, no per-message payload allocation. Frame parses and validates the
// batch header (Next does so on first use); Next then validates one message,
// whose payload is consumed either by Read (into a caller-owned slice: the
// worker runtime's receive phase stages every unit at its candidate index,
// then gathers the staged rows into the receivers) or by AXPY (fused
// decode-and-accumulate into one row).
//
// Decoder trusts nothing it reads: the bitmap and each message are checked
// against the remaining buffer in int64 arithmetic, bit widths outside
// 1..16 (or the frame's bound) are rejected, and the frame must end at its
// last message — so a corrupt or truncated buffer yields an ErrMalformed
// error, never a panic or an attacker-sized allocation.
//
// The decoder borrows the buffer; decoded values must be copied (AXPY/Read do
// exactly that) and callers must not retain sub-slices of buf.
type Decoder struct {
	b      []byte // the frame until Frame parses it, then the undecoded messages
	frame  Frame
	parsed bool
	bitmap []byte // a sampled frame's presence bits
	left   int    // messages not yet yielded
	next   int    // the candidate the presence scan resumes at
	// pending payload (set by Next, consumed by AXPY/Read)
	payload []byte
	bits    int
	grid    compress.WireGrid
}

// NewDecoder returns a decoder positioned at the start of buf.
func NewDecoder(buf []byte) Decoder { return Decoder{b: buf} }

// More reports whether undecoded bytes remain (never for an empty frame).
func (d *Decoder) More() bool { return d.left > 0 || len(d.b) > 0 }

// Frame parses and validates the batch header, once. A frame holds at least
// one message: an empty one is a zero-length buffer.
func (d *Decoder) Frame() (Frame, error) {
	if d.parsed {
		return d.frame, nil
	}
	b := d.b
	if len(b) < FrameHeaderBytes {
		return Frame{}, malformed("short frame header (%d bytes)", len(b))
	}
	f := Frame{Sender: int32(binary.LittleEndian.Uint32(b[2:])), Width: int(binary.LittleEndian.Uint32(b[6:])),
		Bits: int(b[0]), Count: int(binary.LittleEndian.Uint32(b[10:])),
		Adaptive: b[1]&FlagAdaptive != 0, Sampled: b[1]&FlagSampled != 0}
	need := (int64(f.Count) + 7) / 8
	switch b = b[FrameHeaderBytes:]; {
	case d.b[1]&^(FlagAdaptive|FlagSampled) != 0:
		return Frame{}, malformed("unknown flags %#x", d.b[1])
	case f.Bits > 16:
		return Frame{}, malformed("quantized bits %d out of 1..16", f.Bits)
	case f.Adaptive && f.Bits == 0:
		return Frame{}, malformed("adaptive flag on an fp32 frame")
	case f.Width == 0:
		return Frame{}, malformed("zero-width frame")
	case f.Sampled && int64(len(b)) < need:
		return Frame{}, malformed("truncated presence bitmap: have %d bytes, need %d", len(b), need)
	}
	d.left = f.Count
	if f.Sampled {
		d.bitmap, b, d.left = b[:need], b[need:], 0
		if tail := f.Count % 8; tail != 0 && d.bitmap[need-1]>>tail != 0 {
			return Frame{}, malformed("presence bits set past the %d candidates", f.Count)
		}
		for _, m := range d.bitmap {
			d.left += bits.OnesCount8(m)
		}
	}
	if d.left == 0 {
		return Frame{}, malformed("frame holds no messages")
	}
	d.b, d.frame, d.parsed = b, f, true
	return f, nil
}

// Present reports whether a sampled frame's presence bitmap marks candidate
// i < Frame().Count; false on an unsampled or empty frame, which carry no
// bitmap.
func (d *Decoder) Present(i int) bool { return d.bitmap != nil && d.bitmap[i>>3]&(1<<(i&7)) != 0 }

// Next parses and validates the next message, leaving its payload pending for
// AXPY or Read. Calling Next again without consuming the payload skips it.
func (d *Decoder) Next() (Header, error) {
	if !d.parsed {
		if _, err := d.Frame(); err != nil {
			return Header{}, err
		}
	}
	if d.left == 0 {
		return Header{}, malformed("%d trailing bytes after the last message", len(d.b))
	}
	f, i := &d.frame, d.next
	for d.bitmap != nil && !d.Present(i) {
		i++
	}
	b, w, meta := d.b, f.Bits, int64(8)
	if f.Adaptive {
		if len(b) < 9 {
			return Header{}, malformed("truncated quantized payload: have %d bytes, need 9", len(b))
		} else if w, meta = int(b[8]), 9; w < 1 || w > f.Bits {
			return Header{}, malformed("adaptive width %d out of 1..%d", w, f.Bits)
		}
	}
	need, what := meta+(int64(f.Width)*int64(w)+7)/8, "quantized payload"
	if w == 0 {
		meta, need, what = 0, ValueBytes*int64(f.Width), "payload"
	}
	if int64(len(b)) < need {
		return Header{}, malformed("truncated %s: have %d bytes, need %d", what, len(b), need)
	}
	if w > 0 {
		d.grid = readGrid(b)
	}
	d.payload, d.bits, d.b = b[meta:need], w, b[need:]
	d.next, d.left = i+1, d.left-1
	return Header{Index: i, N: f.Width}, nil
}

// AXPY decodes the pending payload, accumulating alpha·payload[i] into
// dst[i]. dst must hold exactly the frame's width. The arithmetic is
// bit-identical to decoding into a fresh slice and calling tensor.AXPY: each
// wire value becomes a float64 first, then one multiply-add.
func (d *Decoder) AXPY(alpha float64, dst []float64) error {
	if len(dst) != d.frame.Width {
		return fmt.Errorf("wire: AXPY dst holds %d values, payload has %d", len(dst), d.frame.Width)
	}
	if d.bits > 0 {
		d.reconstruct(dst, alpha, true)
		return nil
	}
	p := d.payload[:ValueBytes*len(dst)]
	for i := range dst {
		dst[i] += alpha * float64(fp32At(p, i))
	}
	return nil
}

// Read decodes the pending payload into dst, overwriting it. dst must hold
// exactly the frame's width.
func (d *Decoder) Read(dst []float64) error {
	if len(dst) != d.frame.Width {
		return fmt.Errorf("wire: Read dst holds %d values, payload has %d", len(dst), d.frame.Width)
	}
	if d.bits > 0 {
		d.reconstruct(dst, 0, false)
		return nil
	}
	p := d.payload[:ValueBytes*len(dst)]
	for i := range dst {
		dst[i] = float64(fp32At(p, i))
	}
	return nil
}

// fp32At reads value i of an fp32 payload. The full slice expression lets the
// compiler drop the bounds arithmetic a plain p[4i:] carries per value.
func fp32At(p []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(p[ValueBytes*i : ValueBytes*i+ValueBytes : ValueBytes*i+ValueBytes]))
}

// reconstruct walks the pending quantized payload a chunk of levels at a
// time: unpacked onto the stack, then stored to dst or accumulated into it by
// the grid.
func (d *Decoder) reconstruct(dst []float64, alpha float64, accumulate bool) {
	var levels [levelChunk]uint16
	for off := 0; off < len(dst); off += levelChunk {
		c := min(len(dst)-off, levelChunk)
		unpackLevels(levels[:c], d.payload[off*d.bits/8:], d.bits)
		if accumulate {
			d.grid.AXPY(alpha, levels[:c], dst[off:off+c])
		} else {
			d.grid.Values(dst[off:off+c], levels[:c])
		}
	}
}
