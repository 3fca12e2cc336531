package wire

import (
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// The wire format sits on the trust boundary of the worker runtime: every
// byte a worker receives was produced by a peer, and a corrupt batch must
// surface as an error from the round — never a panic in a pool goroutine or
// an attacker-sized allocation. Two native fuzz targets lock that down:
//
//   - FuzzDecoder feeds arbitrary bytes to both decode paths (allocating
//     DecodeAll and the zero-alloc streaming Decoder) and requires them to
//     agree exactly — same messages, or the same error.
//   - FuzzBatchRoundtrip drives the encoder from a fuzzed construction
//     script across every message variant (fp32, fixed quantized, adaptive,
//     roundtrip) and checks size accounting, decode fidelity, and the
//     error-feedback contract (roundtrip values bit-equal the decode).
//
// The seed corpus under testdata/fuzz/ is generated from real encoded
// batches by TestFuzzSeedCorpus (run with -update-corpus to regenerate) so
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
func streamDecode(t *testing.T, buf []byte) ([]*Message, error) {
	t.Helper()
	var out []*Message
	dec := NewDecoder(buf)
	for dec.More() {
		hd, err := dec.Next()
		if err != nil {
			return out, err
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
		out = append(out, &Message{Kind: hd.Kind, SrcPart: hd.SrcPart, Target: hd.Target, Payload: vals})
	}
	return out, nil
}

// FuzzDecoder is the differential robustness target: on arbitrary bytes the
// allocating decoder and the streaming decoder must both finish without
// panicking and agree — identical message sequences on success, identical
// errors on failure. A success additionally bounds the total decoded value
// count by the input size, proving no length field inflated an allocation.
func FuzzDecoder(f *testing.F) {
	for _, seed := range decoderSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		full, fullErr := DecodeAll(data)
		stream, streamErr := streamDecode(t, data)
		if (fullErr == nil) != (streamErr == nil) {
			t.Fatalf("decode paths disagree: DecodeAll err=%v, Decoder err=%v", fullErr, streamErr)
		}
		if fullErr != nil {
			// Both decoders run the same validation, so the error text —
			// which names the offending field — must match too.
			if fullErr.Error() != streamErr.Error() {
				t.Fatalf("decode errors disagree: %q vs %q", fullErr, streamErr)
			}
			return
		}
		if len(full) != len(stream) {
			t.Fatalf("DecodeAll got %d messages, Decoder got %d", len(full), len(stream))
		}
		total := 0
		for i, m := range full {
			s := stream[i]
			if m.Kind != s.Kind || m.SrcPart != s.SrcPart || m.Target != s.Target {
				t.Fatalf("message %d header: DecodeAll %+v, Decoder %+v", i, m, s)
			}
			if len(m.Payload) != len(s.Payload) {
				t.Fatalf("message %d payload length: %d vs %d", i, len(m.Payload), len(s.Payload))
			}
			for j := range m.Payload {
				if !sameF64(m.Payload[j], s.Payload[j]) {
					t.Fatalf("message %d payload[%d]: %v vs %v", i, j, m.Payload[j], s.Payload[j])
				}
			}
			total += len(m.Payload)
		}
		// Every accepted value occupies ≥1 bit on the wire, so a valid batch
		// can never decode more than 8·len(data) values.
		if total > 8*len(data) {
			t.Fatalf("decoded %d values from %d input bytes", total, len(data))
		}
	})
}

// FuzzBatchRoundtrip drives the encoder from a fuzzed construction script
// and checks the full wire contract on the result: batch size equals the
// EncodedSize* accounting (what the traffic parity tests rely on), decode
// recovers headers exactly and payloads within the quantization error bound,
// and the Roundtrip variants report bit-exactly what the receiver decodes —
// the invariant error feedback depends on.
func FuzzBatchRoundtrip(f *testing.F) {
	for _, seed := range roundtripSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		msgs, batch, wantSize := buildScripted(script)
		if got := len(batch.Bytes()); got != wantSize {
			t.Fatalf("batch holds %d bytes, size accounting says %d", got, wantSize)
		}
		if batch.Len() != len(msgs) {
			t.Fatalf("batch counts %d messages, script built %d", batch.Len(), len(msgs))
		}
		decoded, err := DecodeAll(batch.Bytes())
		if err != nil {
			t.Fatalf("valid batch failed to decode: %v", err)
		}
		stream, serr := streamDecode(t, batch.Bytes())
		if serr != nil {
			t.Fatalf("valid batch failed streaming decode: %v", serr)
		}
		if len(decoded) != len(msgs) || len(stream) != len(msgs) {
			t.Fatalf("decoded %d/%d messages, want %d", len(decoded), len(stream), len(msgs))
		}
		for i, sm := range msgs {
			got := decoded[i]
			if got.Kind != sm.m.Kind || got.SrcPart != sm.m.SrcPart || got.Target != sm.m.Target {
				t.Fatalf("message %d header %+v, want %+v", i, got, sm.m)
			}
			if len(got.Payload) != len(sm.m.Payload) {
				t.Fatalf("message %d payload length %d, want %d", i, len(got.Payload), len(sm.m.Payload))
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
				// Streaming decode of the same bytes is bit-identical.
				if !sameF64(stream[i].Payload[j], got.Payload[j]) {
					t.Fatalf("message %d payload[%d]: streaming %v, DecodeAll %v",
						i, j, stream[i].Payload[j], got.Payload[j])
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
	m        *Message
	bits     int // 0 = fp32
	adaptive bool
	rt       []float64 // roundtrip output, nil unless a Roundtrip variant
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

// buildScripted interprets script as a message construction program: each
// message consumes a 4-byte opcode (variant/kind/src, bits, payload length,
// target) followed by its payload bytes, decoded as sixteenths so every
// value is exactly representable in fp32 — except the three bytes scriptNaN,
// scriptPosInf and scriptNegInf, which stand for the non-finite values.
func buildScripted(script []byte) ([]scripted, *Batch, int) {
	var out []scripted
	var b Batch
	size := 0
	for len(script) >= 4 {
		op, bb, nn, tt := script[0], script[1], script[2], script[3]
		script = script[4:]
		kind := KindNode
		if op&1 != 0 {
			kind = KindGroup
		}
		bits := 1 + int(bb)%16
		n := int(nn) % 33
		if n > len(script) {
			n = len(script)
		}
		payload := make([]float64, n)
		for i := range payload {
			switch script[i] {
			case scriptNaN:
				payload[i] = math.NaN()
			case scriptPosInf:
				payload[i] = math.Inf(1)
			case scriptNegInf:
				payload[i] = math.Inf(-1)
			default:
				payload[i] = float64(int8(script[i])) / 16
			}
		}
		script = script[n:]
		s := scripted{
			m:    &Message{Kind: kind, SrcPart: int32(op >> 4), Target: int32(tt), Payload: payload},
			bits: bits,
		}
		switch (op >> 1) & 3 {
		case 0: // fp32
			s.bits = 0
			b.Add(s.m)
			size += EncodedSize(n)
		case 1: // fixed-width quantized
			b.AddQuantized(s.m, s.bits)
			size += EncodedSizeQuantized(n, s.bits)
		case 2: // adaptive width
			s.adaptive = true
			b.AddAdaptive(s.m, s.bits)
			size += EncodedSizeAdaptive(n, s.bits)
		default: // roundtrip variants (op bit 3 picks adaptive)
			s.rt = make([]float64, n)
			if op&8 != 0 {
				s.adaptive = true
				b.AddAdaptiveRoundtrip(s.m, s.bits, s.rt)
				size += EncodedSizeAdaptive(n, s.bits)
			} else {
				b.AddQuantizedRoundtrip(s.m, s.bits, s.rt)
				size += EncodedSizeQuantized(n, s.bits)
			}
		}
		out = append(out, s)
	}
	return out, &b, size
}

// corpusSeed is one named seed-corpus entry.
type corpusSeed struct {
	name string
	data []byte
}

// decoderSeeds returns the FuzzDecoder seed corpus: real encoded batches of
// every message variant the worker runtime ships (the traffic of vanilla,
// semantic, quantized, adaptive, and error-feedback rounds all reduces to
// these encodings), plus the hostile shapes the hand-written tests pin down.
func decoderSeeds() []corpusSeed {
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }
	pay := []float64{-1, -0.5, 0, 0.5, 1, 2}

	var mixed Batch
	mixed.Add(&Message{Kind: KindNode, SrcPart: 0, Target: 7, Payload: []float64{1, -2.5, 0.25}})
	mixed.Add(&Message{Kind: KindNode, SrcPart: 1, Target: 8,
		Payload: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}})
	mixed.Add(&Message{Kind: KindGroup, SrcPart: 1, Target: 3, Payload: []float64{0.5}})
	mixed.Add(&Message{Kind: KindNode, SrcPart: 2, Target: 9, Payload: nil})

	var quant Batch
	for _, bits := range []int{1, 4, 8, 16} {
		quant.AddQuantized(&Message{Kind: KindNode, SrcPart: 0, Target: int32(bits), Payload: pay}, bits)
	}

	var adaptive Batch
	adaptive.AddAdaptive(&Message{Kind: KindGroup, SrcPart: 1, Target: 4, Payload: pay}, 2)
	rt := make([]float64, len(pay))
	adaptive.AddAdaptiveRoundtrip(&Message{Kind: KindNode, SrcPart: 2, Target: 5, Payload: pay}, 8, rt)
	adaptive.AddQuantizedRoundtrip(&Message{Kind: KindGroup, SrcPart: 0, Target: 6, Payload: pay}, 4, rt)

	truncated := clone(mixed.Bytes())
	truncated = truncated[:len(truncated)-3]
	badKind := clone(mixed.Bytes())
	badKind[0] = 99
	badFlags := clone(adaptive.Bytes())
	badFlags[2] = 0x80
	fp32Adaptive := Encode(nil, &Message{Kind: KindNode, Target: 1, Payload: pay})
	fp32Adaptive[2] = FlagAdaptive
	widthMismatch := encodeQuantized(nil, &Message{Kind: KindNode, Target: 2, Payload: pay}, 6, true, nil)
	widthMismatch[HeaderBytes+8] = 7
	// Two different NaNs as lo and step: which one an addition propagates is
	// the compiler's choice per call site, so only a canonical poisoned grid
	// keeps the two decoders bit-equal.
	nanMeta := encodeQuantized(nil, &Message{Kind: KindNode, Target: 3, Payload: pay}, 8, false, nil)
	binary.LittleEndian.PutUint32(nanMeta[HeaderBytes:], 0x7fc12345)
	binary.LittleEndian.PutUint32(nanMeta[HeaderBytes+4:], 0xffc00001)
	hugeLen := make([]byte, HeaderBytes)
	hugeLen[0] = byte(KindNode)
	for i := 12; i < 16; i++ {
		hugeLen[i] = 0xff
	}

	return []corpusSeed{
		{"empty", []byte{}},
		{"mixed-fp32", clone(mixed.Bytes())},
		{"quantized-widths", clone(quant.Bytes())},
		{"adaptive", clone(adaptive.Bytes())},
		{"hostile-truncated", truncated},
		{"hostile-kind", badKind},
		{"hostile-flags", badFlags},
		{"hostile-fp32-adaptive", fp32Adaptive},
		{"hostile-width-mismatch", widthMismatch},
		{"hostile-huge-length", hugeLen},
		{"hostile-nan-metadata", nanMeta},
	}
}

// roundtripSeeds returns the FuzzBatchRoundtrip seed corpus: construction
// scripts covering each encoder variant (see buildScripted's opcode layout).
func roundtripSeeds() []corpusSeed {
	return []corpusSeed{
		{"fp32-node", []byte{0x00, 0, 3, 1, 16, 240, 32}},
		{"quant-group", []byte{0x03, 7, 4, 2, 1, 2, 3, 4}},
		{"adaptive-node", []byte{0x14, 1, 5, 3, 255, 128, 0, 64, 192}},
		{"roundtrip-quant", []byte{0x06, 3, 4, 4, 10, 20, 30, 40}},
		{"roundtrip-adaptive", []byte{0x0e, 11, 6, 5, 5, 15, 25, 35, 45, 55}},
		{"multi-message", []byte{
			0x00, 0, 2, 1, 16, 32,
			0x02, 7, 3, 2, 1, 2, 3,
			0x0e, 3, 2, 3, 100, 200,
		}},
		// Non-finite payloads through every variant: fp32 carries them, the
		// quantized encodings poison the unit (compress.Grid's policy).
		{"nonfinite-fp32", []byte{0x00, 0, 4, 1, scriptNaN, scriptPosInf, scriptNegInf, 16}},
		{"nonfinite-quant-nan", []byte{0x02, 7, 4, 2, 16, scriptNaN, 32, 48}},
		{"nonfinite-adaptive-posinf", []byte{0x04, 3, 3, 3, scriptPosInf, 16, 240}},
		{"nonfinite-roundtrip-neginf", []byte{0x06, 7, 3, 4, 16, 32, scriptNegInf}},
		{"nonfinite-roundtrip-adaptive-mixed", []byte{0x0e, 15, 4, 5, scriptPosInf, scriptNaN, scriptNegInf, 0}},
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
