package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// decodeOne decodes a frame that must hold exactly one message.
func decodeOne(t *testing.T, buf []byte) (Frame, refMessage) {
	t.Helper()
	f, msgs, err := DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("frame holds %d messages, want 1", len(msgs))
	}
	return f, msgs[0]
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Message{Kind: KindNode, Target: 42, Payload: []float64{1.5, -2.25, 0}}
	var b Batch
	b.Begin(Frame{Sender: 3, Width: 3, Count: 1})
	b.Add(m)
	if len(b.Bytes()) != FrameHeaderBytes+EncodedSize(3) {
		t.Fatalf("encoded size = %d, want %d", len(b.Bytes()), FrameHeaderBytes+EncodedSize(3))
	}
	f, got := decodeOne(t, b.Bytes())
	if f != (Frame{Sender: 3, Width: 3, Count: 1}) || got.Index != 0 {
		t.Fatalf("header mismatch: %+v, candidate %d", f, got.Index)
	}
	for i, v := range m.Payload {
		if got.Payload[i] != v { // exactly representable values
			t.Fatalf("payload[%d] = %v, want %v", i, got.Payload[i], v)
		}
	}
}

func TestFp32Truncation(t *testing.T) {
	v := 1.0 + 1e-12 // not representable in fp32
	var b Batch
	b.Add(&Message{Kind: KindNode, Payload: []float64{v}})
	_, got := decodeOne(t, b.Bytes())
	if got.Payload[0] == v {
		t.Fatal("expected fp32 truncation")
	}
	if math.Abs(got.Payload[0]-v) > 1e-6 {
		t.Fatalf("truncation error too large: %v", got.Payload[0]-v)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeAll([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
	var b Batch
	b.Add(&Message{Kind: KindNode, Payload: []float64{1, 2, 3}})
	buf := append([]byte(nil), b.Bytes()...)
	// Unknown codec flags.
	buf[1] = 0x10
	if _, _, err := DecodeAll(buf); err == nil {
		t.Fatal("unknown flags accepted")
	}
	// Truncated payload.
	if _, _, err := DecodeAll(b.Bytes()[:len(b.Bytes())-2]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestBatch(t *testing.T) {
	var b Batch
	if b.Bytes() != nil || b.Len() != 0 {
		t.Fatal("empty batch not empty")
	}
	b.Add(&Message{Kind: KindNode, Target: 7, Payload: []float64{1, 4}})
	b.Add(&Message{Kind: KindNode, Target: 2, Payload: []float64{2, 3}})
	f, msgs, err := DecodeAll(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || b.Len() != 2 {
		t.Fatalf("batch decoded %d messages", len(msgs))
	}
	// An implicit frame: sender 0, every message a candidate, in order.
	if f != (Frame{Width: 2, Count: 2}) || msgs[0].Index != 0 || msgs[1].Index != 1 || msgs[1].Payload[1] != 3 {
		t.Fatalf("batch contents wrong: %+v %+v", f, msgs)
	}
}

func TestDecodeAllCorrupt(t *testing.T) {
	var b Batch
	b.Add(&Message{Kind: KindNode, Payload: []float64{1}})
	buf := append([]byte{}, b.Bytes()...)
	buf = append(buf, 0xFF) // trailing garbage
	if _, _, err := DecodeAll(buf); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("corrupt batch accepted: %v", err)
	}
}

// Property: any frame round-trips with fp32 precision — its header, and each
// message's candidate and values — sampled or not.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := 1 + rng.Intn(20)
		n := 1 + rng.Intn(10)
		frame := Frame{Sender: int32(rng.Intn(16)), Width: width, Count: n, Sampled: rng.Intn(2) == 0}
		var present []int
		for i := 0; len(present) < n; i++ {
			if !frame.Sampled || rng.Intn(2) == 0 {
				present = append(present, i)
			}
			frame.Count = max(frame.Count, i+1)
		}
		var batch Batch
		batch.Begin(frame)
		var want [][]float64
		for k := 0; k < n; k++ {
			payload := make([]float64, width)
			for i := range payload {
				payload[i] = float64(float32(rng.NormFloat64())) // pre-truncate
			}
			if frame.Sampled {
				batch.Present(present[k])
			}
			batch.Add(&Message{Payload: payload})
			want = append(want, payload)
		}
		gotFrame, got, err := DecodeAll(batch.Bytes())
		if err != nil || len(got) != len(want) || gotFrame != frame {
			return false
		}
		for i := range want {
			if got[i].Index != present[i] || len(got[i].Payload) != width {
				return false
			}
			for j := range want[i] {
				if got[i].Payload[j] != want[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode32(b *testing.B) {
	m := &Message{Kind: KindNode, Target: 1, Payload: make([]float64, 32)}
	var batch Batch
	batch.Add(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		batch.Add(m)
	}
}

func BenchmarkDecode32(b *testing.B) {
	var batch Batch
	batch.Add(&Message{Kind: KindNode, Target: 1, Payload: make([]float64, 32)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeAll(batch.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuantizedRoundTrip(t *testing.T) {
	m := &Message{Payload: []float64{-1, 0, 0.5, 1}}
	for _, bits := range []int{2, 4, 8, 12} {
		var b Batch
		b.Begin(Frame{Sender: 2, Width: 4, Bits: bits, Count: 1})
		b.AddQuantized(m, bits)
		if len(b.Bytes()) != FrameHeaderBytes+EncodedSizeQuantized(4, bits) {
			t.Fatalf("bits=%d: size %d, want %d", bits, len(b.Bytes()), FrameHeaderBytes+EncodedSizeQuantized(4, bits))
		}
		f, got := decodeOne(t, b.Bytes())
		if f.Sender != 2 || f.Bits != bits {
			t.Fatalf("bits=%d: header mismatch %+v", bits, f)
		}
		// Error bounded by half a quantization step.
		levels := float64(int(1)<<uint(bits)) - 1
		bound := 2.0/levels/2 + 1e-6
		for i := range m.Payload {
			if d := got.Payload[i] - m.Payload[i]; d > bound || d < -bound {
				t.Fatalf("bits=%d: payload[%d] error %v > %v", bits, i, d, bound)
			}
		}
	}
}

func TestQuantizedVolumeSavings(t *testing.T) {
	n := 64
	if q4, fp := EncodedSizeQuantized(n, 4), EncodedSize(n); q4*4 > fp+3*8 {
		t.Fatalf("4-bit size %d not ≈1/8 of fp32 %d", q4, fp)
	}
}

// TestQuantizedMixedBatch: one adaptive frame carries messages at different
// widths under its bound, each decoding at its own.
func TestQuantizedMixedBatch(t *testing.T) {
	var b Batch
	b.Begin(Frame{Width: 4, Bits: 8, Adaptive: true, Count: 3})
	for _, bits := range []int{2, 8, 4} {
		b.AddAdaptive(&Message{Payload: []float64{0, 1, 2, 3}}, bits)
	}
	_, msgs, err := DecodeAll(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || msgs[2].Index != 2 {
		t.Fatalf("mixed batch decode wrong: %+v", msgs)
	}
	if want := FrameHeaderBytes + EncodedSizeAdaptive(4, 2) + EncodedSizeAdaptive(4, 8) + EncodedSizeAdaptive(4, 4); len(b.Bytes()) != want {
		t.Fatalf("mixed batch holds %d bytes, want %d", len(b.Bytes()), want)
	}
	if msgs[2].Payload[3] < 2.9 || msgs[2].Payload[3] > 3.1 {
		t.Fatalf("quantized value in mixed batch: %v", msgs[2].Payload)
	}
}

func TestQuantizedConstantPayload(t *testing.T) {
	var b Batch
	b.AddQuantized(&Message{Kind: KindNode, Payload: []float64{7, 7, 7}}, 4)
	_, got := decodeOne(t, b.Bytes())
	for _, v := range got.Payload {
		if v != 7 {
			t.Fatalf("constant payload changed: %v", got.Payload)
		}
	}
}

func TestQuantizedBadBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	encodeQuantized(nil, &Message{Kind: KindNode}, 17, false, nil)
}

// Property: DecodeAll never panics on arbitrary corrupted buffers — it must
// return an error or a valid message list.
func TestDecodeRobustnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Start from a valid frame, then corrupt random bytes.
		var b Batch
		width, bits := 1+rng.Intn(10), rng.Intn(17)
		count := 1 + rng.Intn(5)
		b.Begin(Frame{Width: width, Bits: bits, Count: count, Sampled: rng.Intn(2) == 0})
		for k := 0; k < count; k++ {
			payload := make([]float64, width)
			for i := range payload {
				payload[i] = rng.NormFloat64()
			}
			if b.frame.Sampled {
				b.Present(k)
			}
			if bits == 0 {
				b.Add(&Message{Payload: payload})
			} else {
				b.AddQuantized(&Message{Payload: payload}, bits)
			}
		}
		buf := append([]byte(nil), b.Bytes()...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			buf[rng.Intn(len(buf))] = byte(rng.Intn(256))
		}
		// Also try random truncation.
		if rng.Intn(2) == 0 {
			buf = buf[:rng.Intn(len(buf))]
		}
		defer func() {
			if recover() != nil {
				t.Fatal("DecodeAll panicked on corrupt input")
			}
		}()
		frame, msgs, err := DecodeAll(buf)
		// Either an error, or every decoded message is structurally sane.
		if err == nil {
			for _, m := range msgs {
				if len(m.Payload) != frame.Width || m.Index >= max(frame.Count, len(msgs)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeHostileLengths feeds frames whose count, width and bit-width
// fields are attacker-controlled: DecodeAll must validate them against the
// remaining buffer before allocating anything, and must reject bit widths
// the encoder can never produce — errors, never panics or giant allocations.
func TestDecodeHostileLengths(t *testing.T) {
	hdr := func(bits byte, width, count uint32) []byte {
		return referenceFrame(Frame{Bits: int(bits), Width: int(width), Count: int(count)}, nil)
	}

	// Huge fp32 width with an empty body: the int64 need-check must reject
	// it without calling make([]float64, 4294967295).
	if _, _, err := DecodeAll(hdr(0, math.MaxUint32, 1)); err == nil {
		t.Fatal("huge fp32 width accepted")
	}
	// Same for the quantized path.
	if _, _, err := DecodeAll(hdr(8, math.MaxUint32, 1)); err == nil {
		t.Fatal("huge quantized width accepted")
	}
	// A huge count over one message's bytes fails at the second message.
	if _, _, err := DecodeAll(append(hdr(0, 1, math.MaxUint32), 0, 0, 0, 0)); err == nil {
		t.Fatal("huge count accepted")
	}
	// Bit widths outside the encoder's 1..16 range are rejected up front —
	// 255-bit "payloads" used to walk the bit-unpacker off the buffer.
	for _, bits := range []byte{17, 32, 64, 200, 255} {
		b := append(hdr(bits, 1, 1), make([]byte, 64)...)
		if _, _, err := DecodeAll(b); err == nil {
			t.Fatalf("bits=%d accepted", bits)
		}
	}
	// Quantized body one byte short of its declared size.
	msg := &Message{Payload: []float64{1, 2, 3, 4, 5}}
	var q Batch
	q.AddQuantized(msg, 3)
	if _, _, err := DecodeAll(q.Bytes()[:len(q.Bytes())-1]); err == nil {
		t.Fatal("truncated quantized payload accepted")
	}
	// Every in-range width on a valid buffer still decodes.
	for bits := 1; bits <= 16; bits++ {
		var b Batch
		b.AddQuantized(msg, bits)
		_, m := decodeOne(t, b.Bytes())
		if len(m.Payload) != 5 {
			t.Fatalf("bits=%d: bad decode shape", bits)
		}
	}
}

// TestDecodeHostileAdaptive extends TestDecodeHostileLengths to the adaptive
// format's extra attack surface — the flags byte and the per-message width
// byte — and requires the streaming Decoder to reject each corruption with
// the exact same error as DecodeAll.
func TestDecodeHostileAdaptive(t *testing.T) {
	pay := []float64{1, 2, 3, 4, 5}
	var ab Batch
	ab.Begin(Frame{Width: 5, Bits: 8, Adaptive: true, Count: 1})
	ab.AddAdaptive(&Message{Payload: pay}, 6)
	base := ab.Bytes()

	check := func(name string, buf []byte, wantSub string) {
		t.Helper()
		_, _, err := DecodeAll(buf)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: DecodeAll err = %v, want substring %q", name, err, wantSub)
		}
		dec := NewDecoder(buf)
		if _, serr := dec.Next(); serr == nil || serr.Error() != err.Error() {
			t.Fatalf("%s: streaming error %v disagrees with DecodeAll error %v", name, serr, err)
		}
	}

	// Unknown flag bits are rejected whether or not the known bits ride
	// along — forward compatibility stays an explicit decision.
	for _, flags := range []byte{0x04, 0x05, 0x80, 0xfe} {
		buf := append([]byte(nil), base...)
		buf[1] = flags
		check(fmt.Sprintf("flags %#x", flags), buf, "unknown flags")
	}
	// A message width byte past the frame's bound, or zero.
	for _, w := range []byte{0, 9, 17} {
		buf := append([]byte(nil), base...)
		buf[FrameHeaderBytes+8] = w
		check(fmt.Sprintf("width byte %d", w), buf, "adaptive width")
	}
	// The adaptive flag promises quantization metadata an fp32 frame
	// doesn't carry.
	var fb Batch
	fb.Add(&Message{Payload: pay})
	fbuf := append([]byte(nil), fb.Bytes()...)
	fbuf[1] = FlagAdaptive
	check("adaptive on fp32", fbuf, "adaptive flag on an fp32")
	// One byte short: the width metadata byte counts toward the declared
	// size, so truncating it must fail the length check, not read past it.
	check("truncated", base[:len(base)-1], "truncated quantized")
	check("truncated width byte", base[:FrameHeaderBytes+8], "truncated quantized")

	// Every in-range adaptive width still decodes, sizes per the adaptive
	// accounting (one byte over fixed-width), and reconstructs exactly the
	// values its fixed-width twin does — the equivalence-matrix tests lean on
	// adaptive and fixed encodings agreeing at equal bits.
	for bits := 1; bits <= 16; bits++ {
		amsg := encodeQuantized(nil, &Message{Payload: pay}, bits, true, nil)
		if len(amsg) != EncodedSizeAdaptive(len(pay), bits) {
			t.Fatalf("bits=%d: adaptive size %d, want %d", bits, len(amsg), EncodedSizeAdaptive(len(pay), bits))
		}
		if len(amsg) != EncodedSizeQuantized(len(pay), bits)+1 {
			t.Fatalf("bits=%d: adaptive size %d not fixed+1", bits, len(amsg))
		}
		_, am := decodeOne(t, referenceFrame(Frame{Width: 5, Bits: 16, Adaptive: true, Count: 1}, nil, amsg))
		var qb Batch
		qb.AddQuantized(&Message{Payload: pay}, bits)
		_, qm := decodeOne(t, qb.Bytes())
		for i := range pay {
			if am.Payload[i] != qm.Payload[i] {
				t.Fatalf("bits=%d: adaptive payload[%d]=%v, fixed=%v", bits, i, am.Payload[i], qm.Payload[i])
			}
		}
	}
}

// TestDecodeHeaderFieldSweep brute-forces every value of the two untrusted
// single-byte header fields (bits, flags) over a small valid body: DecodeAll
// must classify each as ok or error without panicking, the streaming
// Decoder must agree, and exactly the encoder's combinations are accepted.
func TestDecodeHeaderFieldSweep(t *testing.T) {
	var b Batch
	b.AddQuantized(&Message{Kind: KindNode, Target: 1, Payload: []float64{1, 2}}, 4)
	base := b.Bytes()
	for bits := 0; bits < 256; bits++ {
		for flags := 0; flags < 256; flags++ {
			buf := append([]byte(nil), base...)
			buf[0] = byte(bits)
			buf[1] = byte(flags)
			func() {
				defer func() {
					if recover() != nil {
						t.Fatalf("decode panicked at bits=%d flags=%d", bits, flags)
					}
				}()
				_, _, err := DecodeAll(buf)
				_, _, serr := streamDecode(t, buf)
				if (err == nil) != (serr == nil) {
					t.Fatalf("bits=%d flags=%d: DecodeAll err %v, Decoder err %v", bits, flags, err, serr)
				}
				if (err == nil) != (bits >= 1 && bits <= 4 && flags == 0) {
					t.Fatalf("bits=%d flags=%d: err %v", bits, flags, err)
				}
			}()
		}
	}
	// The canonical frame re-encodes to itself.
	f, msgs, err := DecodeAll(base)
	if err != nil {
		t.Fatal(err)
	}
	var again Batch
	again.Begin(f)
	again.AddQuantized(&Message{Payload: msgs[0].Payload}, 4)
	if !bytes.Equal(again.Bytes()[:FrameHeaderBytes], base[:FrameHeaderBytes]) {
		t.Fatalf("header re-encodes as %x, was %x", again.Bytes()[:FrameHeaderBytes], base[:FrameHeaderBytes])
	}
	if binary.LittleEndian.Uint32(base[10:]) != 1 {
		t.Fatal("implicit frame did not count its message")
	}
}
