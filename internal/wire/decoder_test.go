package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func buildMixedBatch(t *testing.T, rng *rand.Rand, dim, n int, bits int) (*Batch, []*Message) {
	t.Helper()
	var b Batch
	var msgs []*Message
	for i := 0; i < n; i++ {
		m := &Message{Kind: KindNode, SrcPart: int32(i % 3), Target: int32(i)}
		if i%2 == 1 {
			m.Kind = KindGroup
		}
		m.Payload = make([]float64, dim)
		for j := range m.Payload {
			m.Payload[j] = float64(float32(rng.NormFloat64()))
		}
		if bits > 0 {
			b.AddQuantized(m, bits)
		} else {
			b.Add(m)
		}
		msgs = append(msgs, m)
	}
	return &b, msgs
}

// TestDecoderMatchesDecodeAll: the streaming decoder must yield exactly the
// messages DecodeAll materializes — same headers, bit-identical payload
// values — for both fp32 and quantized batches.
func TestDecoderMatchesDecodeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{0, 4, 8, 13} {
		b, _ := buildMixedBatch(t, rng, 7, 9, bits)
		want, err := DecodeAll(b.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(b.Bytes())
		scratch := make([]float64, 7)
		var i int
		for dec.More() {
			hd, err := dec.Next()
			if err != nil {
				t.Fatalf("bits=%d msg %d: %v", bits, i, err)
			}
			w := want[i]
			if hd.Kind != w.Kind || hd.SrcPart != w.SrcPart || hd.Target != w.Target || hd.N != len(w.Payload) {
				t.Fatalf("bits=%d msg %d: header %+v vs message %+v", bits, i, hd, w)
			}
			if err := dec.Read(scratch); err != nil {
				t.Fatal(err)
			}
			for j := range scratch {
				if scratch[j] != w.Payload[j] {
					t.Fatalf("bits=%d msg %d value %d: %v vs %v", bits, i, j, scratch[j], w.Payload[j])
				}
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("bits=%d: decoder yielded %d messages, DecodeAll %d", bits, i, len(want))
		}
	}
}

// TestDecoderAXPYMatchesManual: fused decode-and-accumulate must be
// bit-identical to Read followed by a float64 multiply-add.
func TestDecoderAXPYMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range []int{0, 6} {
		b, _ := buildMixedBatch(t, rng, 5, 4, bits)

		manual := make([]float64, 5)
		dec := NewDecoder(b.Bytes())
		scratch := make([]float64, 5)
		for dec.More() {
			if _, err := dec.Next(); err != nil {
				t.Fatal(err)
			}
			if err := dec.Read(scratch); err != nil {
				t.Fatal(err)
			}
			for j, v := range scratch {
				manual[j] += 0.37 * v
			}
		}

		fused := make([]float64, 5)
		dec = NewDecoder(b.Bytes())
		for dec.More() {
			if _, err := dec.Next(); err != nil {
				t.Fatal(err)
			}
			if err := dec.AXPY(0.37, fused); err != nil {
				t.Fatal(err)
			}
		}
		for j := range fused {
			if fused[j] != manual[j] {
				t.Fatalf("bits=%d value %d: fused %v vs manual %v", bits, j, fused[j], manual[j])
			}
		}
	}
}

// TestDecoderCorruptInputs: every malformed buffer shape must yield an error,
// never a panic or a bogus message.
func TestDecoderCorruptInputs(t *testing.T) {
	var b Batch
	b.Add(&Message{Kind: KindNode, SrcPart: 1, Target: 2, Payload: []float64{1, 2, 3}})
	good := b.Bytes()

	cases := map[string][]byte{
		"short header":      good[:HeaderBytes-3],
		"garbage":           {0xde, 0xad, 0xbe, 0xef},
		"unknown kind":      append([]byte{99}, good[1:]...),
		"truncated payload": good[:len(good)-2],
	}
	// Declared length far past the buffer.
	huge := append([]byte(nil), good...)
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0x7f
	cases["hostile length"] = huge
	// Quantized bit width out of range.
	badBits := append([]byte(nil), good...)
	badBits[1] = 40
	cases["bad bits"] = badBits

	for name, buf := range cases {
		dec := NewDecoder(buf)
		var gotErr error
		for dec.More() {
			if _, err := dec.Next(); err != nil {
				gotErr = err
				break
			}
			if err := dec.Read(make([]float64, 3)); err != nil {
				gotErr = err
				break
			}
		}
		if gotErr == nil {
			t.Fatalf("%s: decoder accepted corrupt buffer", name)
		}
	}
}

// TestDecoderLengthMismatch: AXPY/Read must reject a destination that
// doesn't match the payload's value count instead of misreading the buffer.
func TestDecoderLengthMismatch(t *testing.T) {
	var b Batch
	b.Add(&Message{Kind: KindNode, Target: 1, Payload: []float64{1, 2, 3}})
	dec := NewDecoder(b.Bytes())
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if err := dec.AXPY(1, make([]float64, 2)); err == nil || !strings.Contains(err.Error(), "3") {
		t.Fatalf("AXPY accepted wrong-size dst: %v", err)
	}
	if err := dec.Read(make([]float64, 4)); err == nil {
		t.Fatal("Read accepted wrong-size dst")
	}
}

// TestBatchResetReusesBuffer: Reset must keep the encode buffer's capacity so
// persistent workers re-encode in place.
func TestBatchResetReusesBuffer(t *testing.T) {
	var b Batch
	m := &Message{Kind: KindNode, Target: 1, Payload: make([]float64, 16)}
	b.Add(m)
	grown := cap(b.buf)
	b.Reset()
	if b.Len() != 0 || len(b.Bytes()) != 0 {
		t.Fatalf("reset batch not empty: len=%d bytes=%d", b.Len(), len(b.Bytes()))
	}
	if cap(b.buf) != grown {
		t.Fatalf("reset dropped buffer capacity: %d vs %d", cap(b.buf), grown)
	}
	allocs := testing.AllocsPerRun(20, func() {
		b.Reset()
		b.Add(m)
	})
	if allocs != 0 {
		t.Fatalf("re-encoding into a reset batch allocates %v times", allocs)
	}
}

// TestEncodeQuantizedRoundtripMatchesDecoder: the roundtrip values handed to
// the sender must be bit-identical to what the receiver decodes — the
// property the worker runtime's error feedback depends on.
func TestEncodeQuantizedRoundtripMatchesDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payload := make([]float64, 11)
	for i := range payload {
		payload[i] = rng.NormFloat64() * 3
	}
	m := &Message{Kind: KindNode, Target: 7, Payload: payload}
	rt := make([]float64, len(payload))
	buf := encodeQuantized(nil, m, 4, false, rt)

	got, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	for i := range rt {
		if got.Payload[i] != rt[i] {
			t.Fatalf("value %d: roundtrip %v vs decoded %v", i, rt[i], got.Payload[i])
		}
	}
	// Size mismatch must panic (programming error, not wire corruption).
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short roundtrip slice")
		}
	}()
	encodeQuantized(nil, m, 4, false, rt[:3])
}

// TestNonFiniteQuantizedFrames pins what a poisoned unit (compress.Grid's
// non-finite policy) looks like on the wire and to the receiver: NaN metadata,
// every packed level zero — no non-finite float was converted to an integer —
// a frame the streaming decoder accepts, all-NaN values, and a sender-side
// roundtrip bit-identical to them.
func TestNonFiniteQuantizedFrames(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, payload := range [][]float64{{1, nan, 3}, {1, inf, 3}, {-inf, 1, 3}, {inf, nan, -inf, 0}} {
		for _, adaptive := range []bool{false, true} {
			rt := make([]float64, len(payload))
			buf := encodeQuantized(nil, &Message{Kind: KindGroup, Target: 2, Payload: payload}, 8, adaptive, rt)
			levels := HeaderBytes + 8
			if adaptive {
				levels++
			}
			for _, at := range []int{HeaderBytes, HeaderBytes + 4} {
				if m := math.Float32frombits(binary.LittleEndian.Uint32(buf[at:])); !math.IsNaN(float64(m)) {
					t.Fatalf("payload %v: metadata %v at byte %d, want NaN", payload, m, at)
				}
			}
			for i, b := range buf[levels:] {
				if b != 0 {
					t.Fatalf("payload %v: packed level byte %d = %#x, want 0", payload, i, b)
				}
			}
			dec := NewDecoder(buf)
			hd, err := dec.Next()
			if err != nil || hd.N != len(payload) {
				t.Fatalf("payload %v: decoder rejected the frame: %v (header %+v)", payload, err, hd)
			}
			got := make([]float64, hd.N)
			if err := dec.Read(got); err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if !math.IsNaN(v) || !sameF64(v, rt[i]) {
					t.Fatalf("payload %v: value %d decodes as %v (sender saw %v), want NaN", payload, i, v, rt[i])
				}
			}
		}
	}
}
