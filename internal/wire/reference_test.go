package wire

import (
	"encoding/binary"
	"math"

	"scgnn/internal/compress"
)

// The definitional codec: a whole frame at a time into freshly allocated
// payloads, one value at a time through the grid's per-value rules (Level and
// Value, which compress pins to math.Round and a math.Min/math.Max range).
// Nothing in the module calls it — the runtimes stream frames through Batch
// and Decoder — and it stays as the oracle that Decoder, the grid's slice
// kernels as the wire sees them, and the fuzz differentials are checked
// against.

// The format's arithmetic the size checks hold the encoder to: a message's
// codec bytes, and the fixed bytes of a non-empty frame over count candidates.
func EncodedSize(n int) int                { return ValueBytes * n }
func EncodedSizeQuantized(n, bits int) int { return 8 + (n*bits+7)/8 }
func EncodedSizeAdaptive(n, bits int) int  { return 9 + (n*bits+7)/8 }
func FrameBytes(count int, sampled bool) int {
	if sampled {
		return FrameHeaderBytes + (count+7)/8
	}
	return FrameHeaderBytes
}

// refMessage is one message as the reference decoder materializes it: the
// candidate it stands for and its values.
type refMessage struct {
	Index   int
	Payload []float64
}

// DecodeAll parses a whole frame: its batch header, then every present
// candidate's message in candidate order, each into a freshly allocated
// payload. An empty buffer is the empty frame, with no header and no message.
//
// DecodeAll never trusts a count, width or bit-width field: every declared
// size is validated against the remaining buffer (with the arithmetic done in
// int64, so a hostile field cannot overflow the check) before any allocation,
// and bit widths outside the encoder's range are rejected — so a corrupt or
// truncated buffer yields an error, never a panic or an attacker-sized
// allocation.
func DecodeAll(b []byte) (Frame, []refMessage, error) {
	if len(b) == 0 {
		return Frame{}, nil, nil
	}
	if len(b) < FrameHeaderBytes {
		return Frame{}, nil, malformed("short frame header (%d bytes)", len(b))
	}
	bits, flags := int(b[0]), b[1]
	if flags&^(FlagAdaptive|FlagSampled) != 0 {
		return Frame{}, nil, malformed("unknown flags %#x", flags)
	}
	f := Frame{
		Sender:   int32(binary.LittleEndian.Uint32(b[2:])),
		Width:    int(binary.LittleEndian.Uint32(b[6:])),
		Bits:     bits,
		Adaptive: flags&FlagAdaptive != 0,
		Count:    int(binary.LittleEndian.Uint32(b[10:])),
		Sampled:  flags&FlagSampled != 0,
	}
	if bits > 16 {
		return Frame{}, nil, malformed("quantized bits %d out of 1..16", bits)
	}
	if f.Adaptive && bits == 0 {
		return Frame{}, nil, malformed("adaptive flag on an fp32 frame")
	}
	if f.Width == 0 {
		return Frame{}, nil, malformed("zero-width frame")
	}
	b = b[FrameHeaderBytes:]
	present := func(int) bool { return true }
	msgs := f.Count
	if f.Sampled {
		need := (int64(f.Count) + 7) / 8
		if int64(len(b)) < need {
			return Frame{}, nil, malformed("truncated presence bitmap: have %d bytes, need %d", len(b), need)
		}
		bitmap := b[:need]
		b = b[need:]
		present = func(i int) bool { return bitmap[i/8]>>(i%8)&1 == 1 }
		msgs = 0
		for i := 0; i < 8*len(bitmap); i++ {
			if present(i) && i >= f.Count {
				return Frame{}, nil, malformed("presence bits set past the %d candidates", f.Count)
			}
			if present(i) {
				msgs++
			}
		}
	}
	if msgs == 0 {
		return Frame{}, nil, malformed("frame holds no messages")
	}
	var out []refMessage
	for i := 0; len(out) < msgs; i++ {
		if !present(i) {
			continue
		}
		var payload []float64
		var err error
		if payload, b, err = decodeMessage(f, b); err != nil {
			return Frame{}, nil, err
		}
		out = append(out, refMessage{Index: i, Payload: payload})
	}
	if len(b) > 0 {
		return Frame{}, nil, malformed("%d trailing bytes after the last message", len(b))
	}
	return f, out, nil
}

// decodeMessage parses one message of frame f from the front of b, returning
// its values and the bytes after it.
func decodeMessage(f Frame, b []byte) ([]float64, []byte, error) {
	n := f.Width
	if f.Bits == 0 {
		if need := 4 * int64(n); int64(len(b)) < need {
			return nil, nil, malformed("truncated payload: have %d bytes, need %d", len(b), need)
		}
		payload := make([]float64, n)
		for i := range payload {
			payload[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
		return payload, b[4*n:], nil
	}
	bits, meta := f.Bits, 8
	if f.Adaptive {
		if len(b) < 9 {
			return nil, nil, malformed("truncated quantized payload: have %d bytes, need 9", len(b))
		}
		if bits = int(b[8]); bits < 1 || bits > f.Bits {
			return nil, nil, malformed("adaptive width %d out of 1..%d", bits, f.Bits)
		}
		meta = 9
	}
	need := int64(meta) + (int64(n)*int64(bits)+7)/8
	if int64(len(b)) < need {
		return nil, nil, malformed("truncated quantized payload: have %d bytes, need %d", len(b), need)
	}
	grid := readGrid(b)
	payload := make([]float64, n)
	data := b[meta:need]
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
	return payload, b[need:], nil
}

// referenceEncodeQuantized is the definitional encoder of one message's
// codec bytes: the metadata through a staging array, one level at a time
// through the grid's per-value rule, one appended byte at a time.
func referenceEncodeQuantized(dst []byte, m *Message, bits int, adaptive bool, roundtrip []float64) []byte {
	grid := compress.NewGrid(m.Payload, bits)
	rx := compress.NewWireGrid(grid.Meta())
	var meta [9]byte
	lo, step := grid.Meta()
	binary.LittleEndian.PutUint32(meta[0:], math.Float32bits(lo))
	binary.LittleEndian.PutUint32(meta[4:], math.Float32bits(step))
	n := 8
	if adaptive {
		meta[n] = byte(bits)
		n++
	}
	dst = append(dst, meta[:n]...)
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

// referenceFrame assembles a frame by hand: f's batch header, the presence
// bitmap of the candidates in present when f is sampled, then the messages'
// codec bytes.
func referenceFrame(f Frame, present []int, msgs ...[]byte) []byte {
	var flags byte
	if f.Adaptive {
		flags |= FlagAdaptive
	}
	if f.Sampled {
		flags |= FlagSampled
	}
	b := []byte{byte(f.Bits), flags}
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Sender))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Width))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.Count))
	if f.Sampled {
		bitmap := make([]byte, (f.Count+7)/8)
		for _, i := range present {
			bitmap[i/8] |= 1 << (i % 8)
		}
		b = append(b, bitmap...)
	}
	for _, m := range msgs {
		b = append(b, m...)
	}
	return b
}
