package wire

import (
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// The wire format sits on the trust boundary of the worker runtime: every
// byte a worker receives was produced by a peer, and a corrupt frame must
// surface as an error from the round — never a panic in a pool goroutine or
// an attacker-sized allocation. Two native fuzz targets lock that down:
//
//   - FuzzDecoder feeds arbitrary bytes to both decode paths (allocating
//     DecodeAll and the zero-alloc streaming Decoder) and requires them to
//     agree exactly — same header and messages, or the same error.
//   - FuzzBatchRoundtrip drives the encoder from a fuzzed construction
//     script across every frame variant (fp32, fixed quantized, adaptive,
//     roundtrip; declared or implicit, sampled or not) and checks size
//     accounting, decode fidelity, candidate indices, and the error-feedback
//     contract (roundtrip values bit-equal the decode).
//
// The seed corpus under testdata/fuzz/ is generated from real encoded
// frames by TestFuzzSeedCorpus (run with -update-corpus to regenerate) so
// `go test` always exercises the seeds and `go test -fuzz` starts from
// representative valid and hostile inputs.

// sameF64 reports bitwise float equality: the wire can legitimately carry
// NaN and ±0 payloads (an fp32 bit pattern is whatever the peer sent), so
// differential checks must not let NaN != NaN mask a real divergence.
func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// streamDecode decodes buf with the streaming Decoder, exercising both
// payload consumers: Read fills the returned payload, and AXPY with alpha=1
// into a zeroed slice must reproduce it bit-for-bit (the fused
// decode-and-accumulate the worker receive phase runs).
func streamDecode(t *testing.T, buf []byte) (Frame, []refMessage, error) {
	t.Helper()
	var out []refMessage
	dec := NewDecoder(buf)
	for dec.More() {
		hd, err := dec.Next()
		if err != nil {
			return Frame{}, out, err
		}
		vals := make([]float64, hd.N)
		if err := dec.Read(vals); err != nil {
			t.Fatalf("Read after valid Next: %v", err)
		}
		acc := make([]float64, hd.N)
		if err := dec.AXPY(1, acc); err != nil {
			t.Fatalf("AXPY after valid Next: %v", err)
		}
		for i := range vals {
			// NaN payloads compare bitwise; a -0 payload accumulates to +0
			// (IEEE 0 + -0), so ±0 compare numerically.
			if acc[i] != vals[i] && !sameF64(acc[i], vals[i]) {
				t.Fatalf("AXPY(1) payload[%d] = %v, Read = %v", i, acc[i], vals[i])
			}
		}
		out = append(out, refMessage{Index: hd.Index, Payload: vals})
	}
	if len(out) == 0 {
		return Frame{}, nil, nil
	}
	f, err := dec.Frame()
	if err != nil {
		t.Fatalf("Frame after decoded messages: %v", err)
	}
	return f, out, nil
}

// sameMessages fails unless two decodes yielded the same candidates with
// bit-identical payloads.
func sameMessages(t *testing.T, got, want []refMessage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(want))
	}
	for i, m := range want {
		g := got[i]
		if g.Index != m.Index || len(g.Payload) != len(m.Payload) {
			t.Fatalf("message %d: candidate %d with %d values, want candidate %d with %d", i, g.Index, len(g.Payload), m.Index, len(m.Payload))
		}
		for j := range m.Payload {
			if !sameF64(g.Payload[j], m.Payload[j]) {
				t.Fatalf("message %d payload[%d]: %v vs %v", i, j, g.Payload[j], m.Payload[j])
			}
		}
	}
}

// FuzzDecoder is the differential robustness target: on arbitrary bytes the
// allocating decoder and the streaming decoder must both finish without
// panicking and agree — identical headers and message sequences on success,
// identical errors on failure. A success additionally bounds the total
// decoded value count by the input size, proving no field inflated an
// allocation.
func FuzzDecoder(f *testing.F) {
	for _, seed := range decoderSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fullFrame, full, fullErr := DecodeAll(data)
		streamFrame, stream, streamErr := streamDecode(t, data)
		if (fullErr == nil) != (streamErr == nil) {
			t.Fatalf("decode paths disagree: DecodeAll err=%v, Decoder err=%v", fullErr, streamErr)
		}
		if fullErr != nil {
			// Both decoders run the same validation, so the error text —
			// which names the offending field — must match too.
			if fullErr.Error() != streamErr.Error() {
				t.Fatalf("decode errors disagree: %q vs %q", fullErr, streamErr)
			}
			if !errors.Is(streamErr, ErrMalformed) {
				t.Fatalf("decoder error %v is not ErrMalformed", streamErr)
			}
			return
		}
		if fullFrame != streamFrame {
			t.Fatalf("frame header: DecodeAll %+v, Decoder %+v", fullFrame, streamFrame)
		}
		sameMessages(t, stream, full)
		total := 0
		for _, m := range full {
			total += len(m.Payload)
		}
		// Every accepted value occupies ≥1 bit on the wire, so a valid frame
		// can never decode more than 8·len(data) values.
		if total > 8*len(data) {
			t.Fatalf("decoded %d values from %d input bytes", total, len(data))
		}
	})
}

// FuzzBatchRoundtrip drives the encoder from a fuzzed construction script
// and checks the full wire contract on the result: frame size equals the
// FrameBytes + EncodedSize* accounting (what the traffic parity tests rely
// on), decode recovers the header and every message's candidate exactly and
// its payload within the quantization error bound, and the Roundtrip variants
// report bit-exactly what the receiver decodes — the invariant error feedback
// depends on.
func FuzzBatchRoundtrip(f *testing.F) {
	for _, seed := range roundtripSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		frame, msgs, batch, wantSize := buildScripted(script)
		if got := len(batch.Bytes()); got != wantSize {
			t.Fatalf("frame holds %d bytes, size accounting says %d", got, wantSize)
		}
		if batch.Len() != len(msgs) {
			t.Fatalf("batch counts %d messages, script built %d", batch.Len(), len(msgs))
		}
		gotFrame, decoded, err := DecodeAll(batch.Bytes())
		if err != nil {
			t.Fatalf("valid frame failed to decode: %v", err)
		}
		streamFrame, stream, serr := streamDecode(t, batch.Bytes())
		if serr != nil {
			t.Fatalf("valid frame failed streaming decode: %v", serr)
		}
		if len(msgs) > 0 && (gotFrame != frame || streamFrame != frame) {
			t.Fatalf("frame decodes as %+v / %+v, want %+v", gotFrame, streamFrame, frame)
		}
		sameMessages(t, stream, decoded)
		if len(decoded) != len(msgs) {
			t.Fatalf("decoded %d messages, want %d", len(decoded), len(msgs))
		}
		for i, sm := range msgs {
			got := decoded[i]
			if got.Index != sm.index {
				t.Fatalf("message %d decodes as candidate %d, want %d", i, got.Index, sm.index)
			}
			bound, poisoned := sm.errorBound()
			for j, want := range sm.m.Payload {
				switch g := got.Payload[j]; {
				case poisoned:
					// compress.Grid's non-finite policy: the whole unit is NaN.
					if !math.IsNaN(g) {
						t.Fatalf("message %d (bits=%d) payload[%d] = %v in a poisoned unit, want NaN", i, sm.bits, j, g)
					}
				case sm.bits == 0:
					// fp32 carries script values, non-finite ones included, exactly.
					if g != want && !(math.IsNaN(g) && math.IsNaN(want)) {
						t.Fatalf("message %d fp32 payload[%d] = %v, want %v", i, j, g, want)
					}
				default:
					if d := g - want; d > bound || d < -bound {
						t.Fatalf("message %d (bits=%d) payload[%d] error %v > %v", i, sm.bits, j, d, bound)
					}
				}
				// The sender-side roundtrip is exactly the receiver's view.
				if sm.rt != nil && !sameF64(sm.rt[j], got.Payload[j]) {
					t.Fatalf("message %d roundtrip[%d] = %v, receiver decoded %v",
						i, j, sm.rt[j], got.Payload[j])
				}
			}
		}
	})
}

// Payload bytes buildScripted reads as non-finite values (the extremes of the
// int8 range, which would otherwise be ±8).
const (
	scriptNaN    = 0x80
	scriptPosInf = 0x7f
	scriptNegInf = 0x81
)

// scripted is one message built by buildScripted plus how it was encoded.
type scripted struct {
	m     *Message
	index int       // its candidate
	bits  int       // 0 = fp32
	rt    []float64 // roundtrip output, nil unless a Roundtrip variant
}

// errorBound returns the maximum absolute reconstruction error a quantized
// encoding admits — half a quantization step plus fp32 metadata slop — or
// poisoned when the payload holds a non-finite value, in which case the whole
// unit must decode as NaN. (fp32 messages are checked for exactness instead.)
func (s *scripted) errorBound() (bound float64, poisoned bool) {
	if s.bits == 0 || len(s.m.Payload) == 0 {
		return 0, false
	}
	lo, hi := s.m.Payload[0], s.m.Payload[0]
	for _, v := range s.m.Payload {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		return 0, true
	}
	levels := float64(int(1)<<uint(s.bits)) - 1
	return (hi-lo)/levels/2 + 1e-4, false
}

// buildScripted interprets script as a frame construction program. A 4-byte
// preamble declares the frame — op (bits 1–2 the codec: fp32, fixed,
// adaptive, roundtrip with op bit 3 picking adaptive; bit 0 leaves the frame
// implicit, opened by the first Add; bit 4 samples; bits 5–7 the sender), the
// width bound, the width and spare candidates — then each message consumes a
// control byte (under sampling, its low two bits are candidates skipped
// before it; under adaptive, the high nibble picks its width below the bound)
// followed by width payload bytes, decoded as sixteenths so every value is
// exactly representable in fp32 — except the three bytes scriptNaN,
// scriptPosInf and scriptNegInf, which stand for the non-finite values.
func buildScripted(script []byte) (Frame, []scripted, *Batch, int) {
	var b Batch
	if len(script) < 4 {
		return Frame{}, nil, &b, 0
	}
	op, bb, nn, spare := script[0], script[1], script[2], script[3]
	script = script[4:]
	codec := (op >> 1) & 3
	f := Frame{Sender: int32(op >> 5), Width: 1 + int(nn)%32, Bits: 1 + int(bb)%16,
		Adaptive: codec == 2 || codec == 3 && op&8 != 0}
	implicit := op&1 != 0
	f.Sampled = op&0x10 != 0 && !implicit
	if codec == 0 {
		f.Bits = 0
	}
	if implicit {
		f.Sender = 0
		if f.Adaptive {
			f.Bits = 16
		}
	}
	var out []scripted
	next := 0
	for len(script) >= 1+f.Width {
		ctl := script[0]
		payload := make([]float64, f.Width)
		for i := range payload {
			switch script[1+i] {
			case scriptNaN:
				payload[i] = math.NaN()
			case scriptPosInf:
				payload[i] = math.Inf(1)
			case scriptNegInf:
				payload[i] = math.Inf(-1)
			default:
				payload[i] = float64(int8(script[1+i])) / 16
			}
		}
		script = script[1+f.Width:]
		if f.Sampled {
			next += int(ctl & 3)
		}
		s := scripted{m: &Message{Kind: KindNode, Target: int32(next), Payload: payload}, index: next, bits: f.Bits}
		if f.Adaptive {
			s.bits = 1 + int(ctl>>4)%f.Bits
		}
		if codec == 3 {
			s.rt = make([]float64, f.Width)
		}
		out = append(out, s)
		next++
	}
	f.Count = next
	if f.Sampled {
		f.Count += int(spare) % 8
	}
	if !implicit {
		b.Begin(f)
	}
	size := 0
	for _, s := range out {
		if f.Sampled {
			b.Present(s.index)
		}
		switch {
		case codec == 0:
			b.Add(s.m)
			size += EncodedSize(f.Width)
		case codec == 1:
			b.AddQuantized(s.m, s.bits)
			size += EncodedSizeQuantized(f.Width, s.bits)
		case codec == 2:
			b.AddAdaptive(s.m, s.bits)
			size += EncodedSizeAdaptive(f.Width, s.bits)
		case f.Adaptive:
			b.AddQuantizedRoundtrip(s.m, s.bits, true, s.rt)
			size += EncodedSizeAdaptive(f.Width, s.bits)
		default:
			b.AddQuantizedRoundtrip(s.m, s.bits, false, s.rt)
			size += EncodedSizeQuantized(f.Width, s.bits)
		}
	}
	if len(out) > 0 {
		size += FrameBytes(f.Count, f.Sampled)
	}
	return f, out, &b, size
}

// corpusSeed is one named seed-corpus entry.
type corpusSeed struct {
	name string
	data []byte
}

// decoderSeeds returns the FuzzDecoder seed corpus: real encoded frames of
// every variant the worker runtime ships (the traffic of vanilla, semantic,
// quantized, adaptive, sampled and error-feedback rounds all reduces to
// these encodings), plus the hostile shapes the hand-written tests pin down.
func decoderSeeds() []corpusSeed {
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	pay := []float64{-1, -0.5, 0, 0.5, 1, 2}

	var mixed Batch
	mixed.Begin(Frame{Sender: 1, Width: 4, Count: 3})
	mixed.Add(&Message{Payload: []float64{1, -2.5, 0.25, 3}})
	mixed.Add(&Message{Payload: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}})
	mixed.Add(&Message{Payload: []float64{0.5, 0, 0, 0}})

	// Adaptive messages at every width class under the 16-bit bound.
	var widths Batch
	widths.Begin(Frame{Sender: 2, Width: 6, Bits: 16, Adaptive: true, Count: 4})
	for _, bits := range []int{1, 4, 8, 16} {
		widths.AddAdaptive(&Message{Payload: pay}, bits)
	}

	// A sampled adaptive frame: candidates 1 and 4 of 6 present.
	var adaptive Batch
	adaptive.Begin(Frame{Sender: 3, Width: 6, Bits: 8, Adaptive: true, Count: 6, Sampled: true})
	adaptive.Present(1)
	adaptive.AddAdaptive(&Message{Payload: pay}, 2)
	adaptive.Present(4)
	rt := make([]float64, len(pay))
	adaptive.AddQuantizedRoundtrip(&Message{Payload: pay}, 8, true, rt)

	var q8 Batch
	q8.Begin(Frame{Width: 6, Bits: 8, Count: 1})
	q8.AddQuantized(&Message{Payload: pay}, 8)

	truncated := clone(mixed.Bytes())
	truncated = truncated[:len(truncated)-3]
	badCodec := clone(mixed.Bytes())
	badCodec[0] = 99
	badFlags := clone(adaptive.Bytes())
	badFlags[1] = 0x80
	fp32Adaptive := clone(mixed.Bytes())
	fp32Adaptive[1] = FlagAdaptive
	widthMismatch := clone(adaptive.Bytes())
	widthMismatch[FrameHeaderBytes+1+8] = 9 // the first message's width byte, past the bound
	// Two different NaNs as lo and step: which one an addition propagates is
	// the compiler's choice per call site, so only a canonical poisoned grid
	// keeps the two decoders bit-equal.
	nanMeta := clone(q8.Bytes())
	binary.LittleEndian.PutUint32(nanMeta[FrameHeaderBytes:], 0x7fc12345)
	binary.LittleEndian.PutUint32(nanMeta[FrameHeaderBytes+4:], 0xffc00001)
	hugeCount := clone(mixed.Bytes())
	binary.LittleEndian.PutUint32(hugeCount[10:], math.MaxUint32)
	pastCount := clone(adaptive.Bytes())
	pastCount[FrameHeaderBytes] |= 0x80 // candidate 7 of 6
	trailing := append(clone(q8.Bytes()), 0)

	return []corpusSeed{
		{"empty", []byte{}},
		{"mixed-fp32", clone(mixed.Bytes())},
		{"quantized-widths", clone(widths.Bytes())},
		{"adaptive", clone(adaptive.Bytes())},
		{"hostile-truncated", truncated},
		{"hostile-kind", badCodec},
		{"hostile-flags", badFlags},
		{"hostile-fp32-adaptive", fp32Adaptive},
		{"hostile-width-mismatch", widthMismatch},
		{"hostile-huge-length", hugeCount},
		{"hostile-nan-metadata", nanMeta},
		{"hostile-bits-past-count", pastCount},
		{"hostile-trailing", trailing},
	}
}

// roundtripSeeds returns the FuzzBatchRoundtrip seed corpus: construction
// scripts covering each encoder variant (see buildScripted's layout).
func roundtripSeeds() []corpusSeed {
	return []corpusSeed{
		{"fp32-node", []byte{0x00, 0, 2, 0, 0, 16, 240, 0, 32, 48}},
		{"quant-group", []byte{0x22, 7, 3, 0, 0, 1, 2, 3, 0, 4, 5, 6}},
		{"adaptive-node", []byte{0x14, 7, 4, 3, 0x31, 255, 128, 0, 64, 0x72, 192, 1, 2, 3}},
		{"roundtrip-quant", []byte{0x06, 3, 3, 0, 0, 10, 20, 30, 0, 40, 50, 60}},
		{"roundtrip-adaptive", []byte{0x1e, 11, 2, 5, 0x52, 5, 15, 0x13, 25, 35, 0xf0, 45, 55}},
		{"multi-message", []byte{
			0x03, 7, 1, 0,
			0, 16, 0, 32, 0, 48, 0, 64,
		}},
		// Non-finite payloads through every variant: fp32 carries them, the
		// quantized encodings poison the unit (compress.Grid's policy).
		{"nonfinite-fp32", []byte{0x01, 0, 3, 0, 0, scriptNaN, scriptPosInf, scriptNegInf, 0, 16, 32, 48}},
		{"nonfinite-quant-nan", []byte{0x12, 7, 3, 2, 1, 16, scriptNaN, 32, 2, 48, 64, 80}},
		{"nonfinite-adaptive-posinf", []byte{0x05, 3, 2, 0, 0x10, scriptPosInf, 16, 0x20, 240, 1}},
		{"nonfinite-roundtrip-neginf", []byte{0x06, 7, 2, 0, 0, 16, scriptNegInf}},
		{"nonfinite-roundtrip-adaptive-mixed", []byte{0x0e, 15, 3, 0, 0xa0, scriptPosInf, scriptNaN, scriptNegInf, 0x30, 0, 1, 2}},
	}
}

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the checked-in fuzz seed corpus under testdata/fuzz/")

// TestFuzzSeedCorpus pins the checked-in seed corpus to the generators
// above: every seed must exist under testdata/fuzz/<FuzzName>/ with the
// exact "go test fuzz v1" encoding of its bytes. Run with -update-corpus to
// regenerate after changing the seeds.
func TestFuzzSeedCorpus(t *testing.T) {
	targets := map[string][]corpusSeed{
		"FuzzDecoder":        decoderSeeds(),
		"FuzzBatchRoundtrip": roundtripSeeds(),
	}
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, target := range names {
		dir := filepath.Join("testdata", "fuzz", target)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for _, seed := range targets[target] {
			path := filepath.Join(dir, seed.name)
			want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed.data)) + ")\n"
			if *updateCorpus {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("seed corpus file missing (regenerate with -update-corpus): %v", err)
			}
			if string(got) != want {
				t.Fatalf("%s is stale (regenerate with -update-corpus)", path)
			}
		}
	}
	if *updateCorpus {
		t.Log("seed corpus rewritten")
	}
}
