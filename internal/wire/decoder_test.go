package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// buildFrame encodes n random dim-wide messages from sender 2 — fp32 when
// bits is 0 — into one declared frame, sampled when present is non-nil (its
// candidates, ascending, out of count).
func buildFrame(t *testing.T, rng *rand.Rand, dim, n, bits int, present []int, count int) (*Batch, []*Message) {
	t.Helper()
	f := Frame{Sender: 2, Width: dim, Bits: bits, Count: n}
	if present != nil {
		f.Count, f.Sampled = count, true
	}
	var b Batch
	b.Begin(f)
	var msgs []*Message
	for i := 0; i < n; i++ {
		m := &Message{Payload: make([]float64, dim)}
		for j := range m.Payload {
			m.Payload[j] = float64(float32(rng.NormFloat64()))
		}
		if present != nil {
			b.Present(present[i])
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
// messages DecodeAll materializes — same header, same candidates,
// bit-identical payload values — for fp32 and quantized frames, sampled or
// not.
func TestDecoderMatchesDecodeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{0, 4, 8, 13} {
		for _, present := range [][]int{nil, {0, 3, 4, 9, 10, 11, 12, 15, 16}} {
			b, _ := buildFrame(t, rng, 7, 9, bits, present, 17)
			wantFrame, want, err := DecodeAll(b.Bytes())
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
				if hd.Index != w.Index || hd.N != len(w.Payload) {
					t.Fatalf("bits=%d msg %d: header %+v vs message %+v", bits, i, hd, w)
				}
				if present != nil && hd.Index != present[i] {
					t.Fatalf("bits=%d msg %d: candidate %d, want %d", bits, i, hd.Index, present[i])
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
			if got, _ := dec.Frame(); got != wantFrame {
				t.Fatalf("bits=%d: frame %+v, DecodeAll %+v", bits, got, wantFrame)
			}
		}
	}
}

// TestDecoderAXPYMatchesManual: fused decode-and-accumulate must be
// bit-identical to Read followed by a float64 multiply-add.
func TestDecoderAXPYMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range []int{0, 6} {
		b, _ := buildFrame(t, rng, 5, 4, bits, nil, 0)

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

// TestDecoderCorruptInputs: every malformed buffer shape must yield an
// ErrMalformed error, never a panic or a bogus message.
func TestDecoderCorruptInputs(t *testing.T) {
	var b Batch
	b.Begin(Frame{Sender: 1, Width: 3, Count: 1})
	b.Add(&Message{Payload: []float64{1, 2, 3}})
	good := b.Bytes()
	var s Batch
	s.Begin(Frame{Width: 3, Count: 10, Sampled: true})
	s.Present(2)
	s.Add(&Message{Payload: []float64{1, 2, 3}})
	sampled := s.Bytes()

	with := func(buf []byte, edit func([]byte)) []byte {
		buf = append([]byte(nil), buf...)
		edit(buf)
		return buf
	}
	cases := map[string][]byte{
		"short header":      good[:FrameHeaderBytes-3],
		"garbage":           {0xde, 0xad, 0xbe, 0xef},
		"truncated payload": good[:len(good)-2],
		"trailing bytes":    append(append([]byte(nil), good...), 0),
		"unknown flags":     with(good, func(b []byte) { b[1] = 0x40 }),
		"bad bits":          with(good, func(b []byte) { b[0] = 40 }),
		"zero width":        with(good, func(b []byte) { binary.LittleEndian.PutUint32(b[6:], 0) }),
		"no messages":       with(good, func(b []byte) { binary.LittleEndian.PutUint32(b[10:], 0) }),
		// A count past the messages the frame holds: the second is truncated.
		"hostile count":     with(good, func(b []byte) { binary.LittleEndian.PutUint32(b[10:], math.MaxUint32) }),
		"hostile width":     with(good, func(b []byte) { binary.LittleEndian.PutUint32(b[6:], math.MaxUint32) }),
		"truncated bitmap":  sampled[:FrameHeaderBytes+1],
		"bit past count":    with(sampled, func(b []byte) { b[FrameHeaderBytes+1] |= 0x80 }),
		"popcount over":     with(sampled, func(b []byte) { b[FrameHeaderBytes] |= 0x01 }),
		"popcount under":    with(sampled, func(b []byte) { b[FrameHeaderBytes] = 0 }),
		"sampled bit clear": with(good, func(b []byte) { b[1] = FlagSampled }),
	}
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
		if !errors.Is(gotErr, ErrMalformed) {
			t.Fatalf("%s: decoder returned %v for a corrupt frame", name, gotErr)
		}
	}
}

// TestDecoderLengthMismatch: AXPY/Read must reject a destination that
// doesn't match the frame's width instead of misreading the buffer.
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

// TestBatchResetReusesBuffer: Reset and Begin must keep the encode buffer's
// capacity so persistent workers re-encode in place, header and bitmap
// included.
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
	f := Frame{Sender: 1, Width: 16, Count: 9, Sampled: true}
	b.Begin(f)
	b.Present(7)
	b.Add(m)
	allocs = testing.AllocsPerRun(20, func() {
		b.Begin(f)
		b.Present(7)
		b.Add(m)
	})
	if allocs != 0 {
		t.Fatalf("re-encoding a sampled frame allocates %v times", allocs)
	}
}

// TestBatchFrameContract pins the encoder's side of the format: a frame
// holds one width and one codec, an unsampled frame no more messages than
// candidates, a sampled frame one Present per message at ascending
// candidates — anything else is a programming error and panics — and a
// frame with no message is zero bytes.
func TestBatchFrameContract(t *testing.T) {
	pay := []float64{1, 2, 3}
	panics := map[string]func(b *Batch){
		"width": func(b *Batch) { b.Add(&Message{Payload: pay}); b.Add(&Message{Payload: pay[:2]}) },
		"codec": func(b *Batch) { b.Add(&Message{Payload: pay}); b.AddQuantized(&Message{Payload: pay}, 8) },
		"bits":  func(b *Batch) { b.AddQuantized(&Message{Payload: pay}, 8); b.AddQuantized(&Message{Payload: pay}, 4) },
		"adaptive bound": func(b *Batch) {
			b.Begin(Frame{Width: 3, Bits: 4, Adaptive: true, Count: 1})
			b.AddAdaptive(&Message{Payload: pay}, 5)
		},
		"zero width":        func(b *Batch) { b.Add(&Message{}) },
		"past count":        func(b *Batch) { b.Begin(Frame{Width: 3, Count: 0}); b.Add(&Message{Payload: pay}) },
		"missing Present":   func(b *Batch) { b.Begin(Frame{Width: 3, Count: 2, Sampled: true}); b.Add(&Message{Payload: pay}) },
		"Present unsampled": func(b *Batch) { b.Begin(Frame{Width: 3, Count: 2}); b.Present(0) },
		"Present repeated":  func(b *Batch) { b.Begin(Frame{Width: 3, Count: 2, Sampled: true}); b.Present(1); b.Present(1) },
		"Present past":      func(b *Batch) { b.Begin(Frame{Width: 3, Count: 2, Sampled: true}); b.Present(2) },
		"adaptive fp32":     func(b *Batch) { b.Begin(Frame{Width: 3, Adaptive: true}) },
	}
	for name, build := range panics {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			build(new(Batch))
		}()
	}
	var b Batch
	b.Begin(Frame{Sender: 3, Width: 3, Count: 4, Sampled: true})
	if b.Bytes() != nil || b.Len() != 0 {
		t.Fatalf("a frame with no message holds %d bytes", len(b.Bytes()))
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
	var b Batch
	b.AddQuantizedRoundtrip(m, 4, false, rt)

	_, got, err := DecodeAll(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rt {
		if got[0].Payload[i] != rt[i] {
			t.Fatalf("value %d: roundtrip %v vs decoded %v", i, rt[i], got[0].Payload[i])
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
			msg := encodeQuantized(nil, &Message{Payload: payload}, 8, adaptive, rt)
			levels := 8
			if adaptive {
				levels++
			}
			for _, at := range []int{0, 4} {
				if m := math.Float32frombits(binary.LittleEndian.Uint32(msg[at:])); !math.IsNaN(float64(m)) {
					t.Fatalf("payload %v: metadata %v at byte %d, want NaN", payload, m, at)
				}
			}
			for i, b := range msg[levels:] {
				if b != 0 {
					t.Fatalf("payload %v: packed level byte %d = %#x, want 0", payload, i, b)
				}
			}
			buf := referenceFrame(Frame{Width: len(payload), Bits: 8, Adaptive: adaptive, Count: 1}, nil, msg)
			var batch Batch
			if adaptive {
				batch.Begin(Frame{Width: len(payload), Bits: 8, Adaptive: true, Count: 1})
				batch.AddAdaptive(&Message{Payload: payload}, 8)
			} else {
				batch.Begin(Frame{Width: len(payload), Bits: 8, Count: 1})
				batch.AddQuantized(&Message{Payload: payload}, 8)
			}
			if !bytes.Equal(batch.Bytes(), buf) {
				t.Fatalf("payload %v: batch\n %x, want\n %x", payload, batch.Bytes(), buf)
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
