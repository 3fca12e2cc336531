package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"scgnn/internal/compress"
)

// Header is the parsed fixed-size prefix of one message, yielded by
// Decoder.Next before the payload is materialized.
type Header struct {
	Kind    Kind
	SrcPart int32
	Target  int32
	// N is the payload value count.
	N int
}

// Decoder iterates the messages of an encoded batch buffer in place: no
// []*Message slice, no per-message payload allocation. Next parses and
// validates one header; the payload is then consumed either by AXPY (fused
// decode-and-accumulate straight into an output row, the hot path of the
// worker runtime's receive phase) or by Read (into a caller-owned scratch
// slice, for group messages that fan out to several rows).
//
// Decoder trusts nothing it reads: declared lengths are checked against the
// remaining buffer in int64 arithmetic and bit widths outside 1..16 are
// rejected, so a corrupt or truncated buffer yields an error, never a panic or
// an attacker-sized allocation.
//
// The decoder borrows the buffer; decoded values must be copied (AXPY/Read do
// exactly that) and callers must not retain sub-slices of buf.
type Decoder struct {
	b []byte
	// pending payload (set by Next, consumed by AXPY/Read)
	payload []byte
	bits    int
	grid    compress.WireGrid
	n       int
}

// NewDecoder returns a decoder positioned at the first message of buf.
func NewDecoder(buf []byte) Decoder { return Decoder{b: buf} }

// More reports whether undecoded messages remain.
func (d *Decoder) More() bool { return len(d.b) > 0 }

// Next parses and validates the next message header, leaving its payload
// pending for AXPY or Read. Calling Next again without consuming the payload
// skips it.
func (d *Decoder) Next() (Header, error) {
	b := d.b
	if len(b) < HeaderBytes {
		return Header{}, fmt.Errorf("wire: short header (%d bytes)", len(b))
	}
	kind := Kind(b[0])
	if kind != KindNode && kind != KindGroup {
		return Header{}, fmt.Errorf("wire: unknown kind %d", b[0])
	}
	if b[2]&^FlagAdaptive != 0 {
		return Header{}, fmt.Errorf("wire: unknown flags %#x", b[2])
	}
	adaptive := b[2]&FlagAdaptive != 0
	hd := Header{
		Kind:    kind,
		SrcPart: int32(binary.LittleEndian.Uint32(b[4:])),
		Target:  int32(binary.LittleEndian.Uint32(b[8:])),
		N:       int(binary.LittleEndian.Uint32(b[12:])),
	}
	if bits := int(b[1]); bits > 0 {
		if bits > 16 {
			return Header{}, fmt.Errorf("wire: quantized bits %d out of 1..16", bits)
		}
		meta := 8
		if adaptive {
			meta = 9
		}
		need := int64(HeaderBytes) + int64(meta) + (int64(hd.N)*int64(bits)+7)/8
		if int64(len(b)) < need {
			return Header{}, fmt.Errorf("wire: truncated quantized payload: have %d bytes, need %d", len(b), need)
		}
		if adaptive && int(b[HeaderBytes+8]) != bits {
			return Header{}, fmt.Errorf("wire: adaptive width byte %d disagrees with header bits %d", b[HeaderBytes+8], bits)
		}
		d.grid = readGrid(b[HeaderBytes:])
		d.payload = b[HeaderBytes+meta : need]
		d.bits = bits
		d.b = b[need:]
	} else if adaptive {
		return Header{}, fmt.Errorf("wire: adaptive flag on fp32 payload")
	} else {
		need := int64(HeaderBytes) + 4*int64(hd.N)
		if int64(len(b)) < need {
			return Header{}, fmt.Errorf("wire: truncated payload: have %d bytes, need %d", len(b), need)
		}
		d.payload = b[HeaderBytes:need]
		d.bits = 0
		d.b = b[need:]
	}
	d.n = hd.N
	return hd, nil
}

// AXPY decodes the pending payload, accumulating alpha·payload[i] into
// dst[i]. dst must hold exactly the payload's value count. The arithmetic is
// bit-identical to decoding into a fresh slice and calling tensor.AXPY: each
// wire value becomes a float64 first, then one multiply-add.
func (d *Decoder) AXPY(alpha float64, dst []float64) error {
	if len(dst) != d.n {
		return fmt.Errorf("wire: AXPY dst holds %d values, payload has %d", len(dst), d.n)
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
// exactly the payload's value count.
func (d *Decoder) Read(dst []float64) error {
	if len(dst) != d.n {
		return fmt.Errorf("wire: Read dst holds %d values, payload has %d", len(dst), d.n)
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
