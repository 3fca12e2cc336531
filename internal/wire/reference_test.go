package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"scgnn/internal/compress"
)

// The definitional codec: one message at a time into a freshly allocated
// payload, one value at a time through the grid's per-value rules (Level and
// Value, which compress pins to math.Round and a math.Min/math.Max range).
// Nothing in the module calls it — the runtimes stream batches through
// Batch and Decoder — and it stays as the oracle that Decoder, the grid's
// slice kernels as the wire sees them, and the fuzz differentials are checked
// against.

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

// referenceEncodeQuantized is the definitional encoder to match: the header
// through a staging array, one level at a time through the grid's per-value
// rule, one appended byte at a time.
func referenceEncodeQuantized(dst []byte, m *Message, bits int, adaptive bool, roundtrip []float64) []byte {
	grid := compress.NewGrid(m.Payload, bits)
	rx := compress.NewWireGrid(grid.Meta())
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
