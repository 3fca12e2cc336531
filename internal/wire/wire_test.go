package wire

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Message{Kind: KindGroup, SrcPart: 3, Target: 42, Payload: []float64{1.5, -2.25, 0}}
	buf := Encode(nil, m)
	if len(buf) != EncodedSize(3) {
		t.Fatalf("encoded size = %d, want %d", len(buf), EncodedSize(3))
	}
	got, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes", len(rest))
	}
	if got.Kind != m.Kind || got.SrcPart != 3 || got.Target != 42 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i, v := range m.Payload {
		if got.Payload[i] != v { // exactly representable values
			t.Fatalf("payload[%d] = %v, want %v", i, got.Payload[i], v)
		}
	}
}

func TestFp32Truncation(t *testing.T) {
	v := 1.0 + 1e-12 // not representable in fp32
	m := &Message{Kind: KindNode, Payload: []float64{v}}
	got, _, err := Decode(Encode(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload[0] == v {
		t.Fatal("expected fp32 truncation")
	}
	if math.Abs(got.Payload[0]-v) > 1e-6 {
		t.Fatalf("truncation error too large: %v", got.Payload[0]-v)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header accepted")
	}
	// Unknown kind.
	buf := Encode(nil, &Message{Kind: KindNode, Payload: []float64{1}})
	buf[0] = 99
	if _, _, err := Decode(buf); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Truncated payload.
	buf = Encode(nil, &Message{Kind: KindNode, Payload: []float64{1, 2, 3}})
	if _, _, err := Decode(buf[:len(buf)-2]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestBatch(t *testing.T) {
	var b Batch
	if b.Bytes() != nil || b.Len() != 0 {
		t.Fatal("empty batch not empty")
	}
	b.Add(&Message{Kind: KindNode, SrcPart: 0, Target: 7, Payload: []float64{1}})
	b.Add(&Message{Kind: KindGroup, SrcPart: 0, Target: 2, Payload: []float64{2, 3}})
	msgs, err := DecodeAll(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || b.Len() != 2 {
		t.Fatalf("batch decoded %d messages", len(msgs))
	}
	if msgs[0].Target != 7 || msgs[1].Kind != KindGroup || len(msgs[1].Payload) != 2 {
		t.Fatalf("batch contents wrong: %+v %+v", msgs[0], msgs[1])
	}
}

func TestDecodeAllCorrupt(t *testing.T) {
	var b Batch
	b.Add(&Message{Kind: KindNode, Payload: []float64{1}})
	buf := append([]byte{}, b.Bytes()...)
	buf = append(buf, 0xFF) // trailing garbage → short header error
	if _, err := DecodeAll(buf); err == nil {
		t.Fatal("corrupt batch accepted")
	}
}

// Property: any message round-trips with fp32 precision, and batches of
// random messages decode to the same sequence.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var batch Batch
		var want []*Message
		for k := 0; k < 1+rng.Intn(10); k++ {
			kind := KindNode
			if rng.Intn(2) == 0 {
				kind = KindGroup
			}
			payload := make([]float64, rng.Intn(20))
			for i := range payload {
				payload[i] = float64(float32(rng.NormFloat64())) // pre-truncate
			}
			m := &Message{
				Kind:    kind,
				SrcPart: int32(rng.Intn(16)),
				Target:  int32(rng.Intn(1 << 20)),
				Payload: payload,
			}
			batch.Add(m)
			want = append(want, m)
		}
		got, err := DecodeAll(batch.Bytes())
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Kind != want[i].Kind || got[i].SrcPart != want[i].SrcPart || got[i].Target != want[i].Target {
				return false
			}
			if len(got[i].Payload) != len(want[i].Payload) {
				return false
			}
			for j := range want[i].Payload {
				if got[i].Payload[j] != want[i].Payload[j] {
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
	buf := make([]byte, 0, EncodedSize(32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}

func BenchmarkDecode32(b *testing.B) {
	buf := Encode(nil, &Message{Kind: KindNode, Target: 1, Payload: make([]float64, 32)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuantizedRoundTrip(t *testing.T) {
	m := &Message{Kind: KindGroup, SrcPart: 2, Target: 9, Payload: []float64{-1, 0, 0.5, 1}}
	for _, bits := range []int{2, 4, 8, 12} {
		buf := encodeQuantized(nil, m, bits, false, nil)
		if len(buf) != EncodedSizeQuantized(4, bits) {
			t.Fatalf("bits=%d: size %d, want %d", bits, len(buf), EncodedSizeQuantized(4, bits))
		}
		got, rest, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 || got.Kind != KindGroup || got.SrcPart != 2 || got.Target != 9 {
			t.Fatalf("bits=%d: header mismatch %+v", bits, got)
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
	if q4, fp := EncodedSizeQuantized(n, 4), EncodedSize(n); q4*4 > fp+3*HeaderBytes {
		t.Fatalf("4-bit size %d not ≈1/8 of fp32 %d", q4, fp)
	}
}

func TestQuantizedMixedBatch(t *testing.T) {
	var b Batch
	b.Add(&Message{Kind: KindNode, Target: 1, Payload: []float64{1, 2}})
	b.AddQuantized(&Message{Kind: KindGroup, Target: 2, Payload: []float64{0, 1, 2, 3}}, 4)
	b.Add(&Message{Kind: KindNode, Target: 3, Payload: []float64{5}})
	msgs, err := DecodeAll(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || msgs[0].Target != 1 || msgs[1].Target != 2 || msgs[2].Target != 3 {
		t.Fatalf("mixed batch decode wrong: %+v", msgs)
	}
	if msgs[1].Payload[3] < 2.9 || msgs[1].Payload[3] > 3.1 {
		t.Fatalf("quantized value in mixed batch: %v", msgs[1].Payload)
	}
}

func TestQuantizedConstantPayload(t *testing.T) {
	m := &Message{Kind: KindNode, Payload: []float64{7, 7, 7}}
	got, _, err := Decode(encodeQuantized(nil, m, 4, false, nil))
	if err != nil {
		t.Fatal(err)
	}
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
		// Start from a valid batch, then corrupt random bytes.
		var b Batch
		for k := 0; k < 1+rng.Intn(5); k++ {
			payload := make([]float64, rng.Intn(10))
			for i := range payload {
				payload[i] = rng.NormFloat64()
			}
			if rng.Intn(2) == 0 {
				b.Add(&Message{Kind: KindNode, Target: int32(rng.Intn(100)), Payload: payload})
			} else {
				b.AddQuantized(&Message{Kind: KindGroup, Target: int32(rng.Intn(100)), Payload: payload}, 1+rng.Intn(16))
			}
		}
		buf := append([]byte(nil), b.Bytes()...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			if len(buf) == 0 {
				break
			}
			buf[rng.Intn(len(buf))] = byte(rng.Intn(256))
		}
		// Also try random truncation.
		if len(buf) > 0 && rng.Intn(2) == 0 {
			buf = buf[:rng.Intn(len(buf))]
		}
		defer func() {
			if recover() != nil {
				t.Fatal("DecodeAll panicked on corrupt input")
			}
		}()
		msgs, err := DecodeAll(buf)
		// Either an error, or every decoded message is structurally sane.
		if err == nil {
			for _, m := range msgs {
				if m.Kind != KindNode && m.Kind != KindGroup {
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

// TestDecodeHostileLengths feeds headers whose length/bit-width fields are
// attacker-controlled: Decode must validate them against the remaining
// buffer before allocating anything, and must reject bit widths the encoder
// can never produce — errors, never panics or giant allocations.
func TestDecodeHostileLengths(t *testing.T) {
	hdr := func(kind Kind, bits byte, n uint32) []byte {
		b := make([]byte, HeaderBytes)
		b[0] = byte(kind)
		b[1] = bits
		b[12] = byte(n)
		b[13] = byte(n >> 8)
		b[14] = byte(n >> 16)
		b[15] = byte(n >> 24)
		return b
	}

	// Huge fp32 length with an empty body: the int64 need-check must reject
	// it without calling make([]float64, 4294967295).
	if _, _, err := Decode(hdr(KindNode, 0, math.MaxUint32)); err == nil {
		t.Fatal("huge fp32 length accepted")
	}
	// Same for the quantized path.
	if _, _, err := Decode(hdr(KindGroup, 8, math.MaxUint32)); err == nil {
		t.Fatal("huge quantized length accepted")
	}
	// Bit widths outside the encoder's 1..16 range are rejected up front —
	// 255-bit "payloads" used to walk the bit-unpacker off the buffer.
	for _, bits := range []byte{17, 32, 64, 200, 255} {
		b := append(hdr(KindNode, bits, 1), make([]byte, 64)...)
		_, _, err := Decode(b)
		if err == nil {
			t.Fatalf("bits=%d accepted", bits)
		}
	}
	// Quantized body one byte short of its declared size.
	msg := &Message{Kind: KindGroup, Target: 7, Payload: []float64{1, 2, 3, 4, 5}}
	qbuf := encodeQuantized(nil, msg, 3, false, nil)
	if _, _, err := Decode(qbuf[:len(qbuf)-1]); err == nil {
		t.Fatal("truncated quantized payload accepted")
	}
	// Every in-range width on a valid buffer still decodes.
	for bits := 1; bits <= 16; bits++ {
		buf := encodeQuantized(nil, msg, bits, false, nil)
		m, rest, err := Decode(buf)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if len(rest) != 0 || len(m.Payload) != 5 {
			t.Fatalf("bits=%d: bad decode shape", bits)
		}
	}
}

// TestDecodeHostileAdaptive extends TestDecodeHostileLengths to the adaptive
// format's extra attack surface — the flags byte and the width metadata byte
// — and requires the streaming Decoder to reject each corruption with the
// exact same error as Decode.
func TestDecodeHostileAdaptive(t *testing.T) {
	pay := []float64{1, 2, 3, 4, 5}
	msg := &Message{Kind: KindNode, Target: 3, Payload: pay}
	base := encodeQuantized(nil, msg, 6, true, nil)

	check := func(name string, buf []byte, wantSub string) {
		t.Helper()
		_, _, err := Decode(buf)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: Decode err = %v, want substring %q", name, err, wantSub)
		}
		dec := NewDecoder(buf)
		if _, serr := dec.Next(); serr == nil || serr.Error() != err.Error() {
			t.Fatalf("%s: streaming error %v disagrees with Decode error %v", name, serr, err)
		}
	}

	// Unknown flag bits are rejected whether or not the adaptive bit rides
	// along — forward compatibility stays an explicit decision.
	for _, flags := range []byte{0x02, 0x03, 0x80, 0xfe} {
		buf := append([]byte(nil), base...)
		buf[2] = flags
		check(fmt.Sprintf("flags %#x", flags), buf, "unknown flags")
	}
	// Width metadata byte disagreeing with the header bits field.
	buf := append([]byte(nil), base...)
	buf[HeaderBytes+8] = 7
	check("width mismatch", buf, "disagrees with header bits")
	// The adaptive flag promises quantization metadata an fp32 payload
	// doesn't carry.
	fbuf := Encode(nil, msg)
	fbuf[2] = FlagAdaptive
	check("adaptive on fp32", fbuf, "adaptive flag on fp32")
	// One byte short: the width metadata byte counts toward the declared
	// size, so truncating it must fail the length check, not read past it.
	check("truncated", base[:len(base)-1], "truncated quantized")

	// Every in-range adaptive width still decodes, sizes per the adaptive
	// accounting (one byte over fixed-width), and reconstructs exactly the
	// values its fixed-width twin does — the equivalence-matrix tests lean on
	// adaptive and fixed encodings agreeing at equal bits.
	for bits := 1; bits <= 16; bits++ {
		abuf := encodeQuantized(nil, msg, bits, true, nil)
		if len(abuf) != EncodedSizeAdaptive(len(pay), bits) {
			t.Fatalf("bits=%d: adaptive size %d, want %d", bits, len(abuf), EncodedSizeAdaptive(len(pay), bits))
		}
		if len(abuf) != EncodedSizeQuantized(len(pay), bits)+1 {
			t.Fatalf("bits=%d: adaptive size %d not fixed+1", bits, len(abuf))
		}
		am, rest, err := Decode(abuf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("bits=%d: adaptive decode err=%v rest=%d", bits, err, len(rest))
		}
		qm, _, err := Decode(encodeQuantized(nil, msg, bits, false, nil))
		if err != nil {
			t.Fatal(err)
		}
		for i := range pay {
			if am.Payload[i] != qm.Payload[i] {
				t.Fatalf("bits=%d: adaptive payload[%d]=%v, fixed=%v", bits, i, am.Payload[i], qm.Payload[i])
			}
		}
	}
}

// TestDecodeHeaderFieldSweep brute-forces every value of the two untrusted
// single-byte header fields (kind, bits) over a small valid body: Decode
// must classify each as ok or error without panicking.
func TestDecodeHeaderFieldSweep(t *testing.T) {
	base := encodeQuantized(nil, &Message{Kind: KindNode, Target: 1, Payload: []float64{1, 2}}, 4, false, nil)
	for kind := 0; kind < 256; kind++ {
		for bits := 0; bits < 256; bits++ {
			buf := append([]byte(nil), base...)
			buf[0] = byte(kind)
			buf[1] = byte(bits)
			func() {
				defer func() {
					if recover() != nil {
						t.Fatalf("Decode panicked at kind=%d bits=%d", kind, bits)
					}
				}()
				Decode(buf)
			}()
		}
	}
}
