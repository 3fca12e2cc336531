package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"scgnn/internal/compress"
)

// gridSIMD is compress's gate for the grid's AVX2 bodies. Production code has
// no switch — CPU capability alone picks the path — so the tests here reach
// the variable by name, to pin the vector path and the Go path to the same
// bytes on one host the way tensor's tests flip tensor's gate.
//
//go:linkname gridSIMD scgnn/internal/compress.useSIMD
var gridSIMD bool

// codecCase is one payload shape of the kernel matrix, after compress's own
// (kernels_test.go there): the clamp at hi, exact ties and the largest
// fraction below one, denormal ranges, ±0 at either end of the range, and
// each way a payload poisons its unit.
type codecCase struct {
	name string
	fill func(rng *rand.Rand, v []float64, bits int)
}

func codecCases() []codecCase {
	negZero := math.Copysign(0, -1)
	normal := func(rng *rand.Rand, v []float64) {
		for i := range v {
			v[i] = rng.NormFloat64() * 3
		}
	}
	// pinned puts lo = 0 and hi = top·step, step a power of two, in v's first
	// two slots: the grid's step is then exactly step.
	pinned := func(v []float64, bits int, step float64) (top int) {
		top = 1<<uint(bits) - 1
		if len(v) > 1 {
			v[0], v[1] = 0, float64(top)*step
		}
		return top
	}
	zeros := func(rng *rand.Rand, v []float64, sign float64) {
		for i := range v {
			switch rng.Intn(3) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = negZero
			default:
				v[i] = sign * rng.Float64()
			}
		}
	}
	one := func(rng *rand.Rand, v []float64, x float64) {
		normal(rng, v)
		if len(v) > 0 {
			v[rng.Intn(len(v))] = x
		}
	}
	return []codecCase{
		{"random", func(rng *rand.Rand, v []float64, _ int) { normal(rng, v) }},
		{"constant", func(_ *rand.Rand, v []float64, _ int) {
			for i := range v {
				v[i] = 1.37
			}
		}},
		{"clamp", func(rng *rand.Rand, v []float64, _ int) {
			lo, hi := -1.0/3, 7.0/3 // (hi − lo)/step lands a rounding error either side of top
			for i := range v {
				switch rng.Intn(3) {
				case 0:
					v[i] = hi
				case 1:
					v[i] = lo
				default:
					v[i] = lo + (hi-lo)*rng.Float64()
				}
			}
		}},
		{"ties", func(rng *rand.Rand, v []float64, bits int) {
			top := pinned(v, bits, 0.25)
			for i := 2; i < len(v); i++ {
				v[i] = (float64(rng.Intn(top)) + 0.5) * 0.25
			}
		}},
		{"below-tie", func(rng *rand.Rand, v []float64, bits int) {
			step := math.Ldexp(1, rng.Intn(9)-4)
			pinned(v, bits, step)
			for i := 2; i < len(v); i++ {
				v[i] = 0.49999999999999994 * step
			}
		}},
		{"denormals", func(rng *rand.Rand, v []float64, _ int) {
			for i := range v {
				v[i] = math.Float64frombits(uint64(rng.Intn(1 << 20)))
			}
		}},
		{"zeros-at-min", func(rng *rand.Rand, v []float64, _ int) { zeros(rng, v, 1) }},
		{"zeros-at-max", func(rng *rand.Rand, v []float64, _ int) { zeros(rng, v, -1) }},
		{"nan", func(rng *rand.Rand, v []float64, _ int) { one(rng, v, math.NaN()) }},
		{"+inf", func(rng *rand.Rand, v []float64, _ int) { one(rng, v, math.Inf(1)) }},
		{"-inf", func(rng *rand.Rand, v []float64, _ int) { one(rng, v, math.Inf(-1)) }},
		{"beyond-float32", func(rng *rand.Rand, v []float64, _ int) {
			for i := range v {
				v[i] = 1e39 * (1 + rng.Float64())
			}
		}},
		{"float32-span", func(rng *rand.Rand, v []float64, _ int) {
			for i := range v { // a float32 payload whose span is not one
				v[i] = float64(float32(3e38 * (2*rng.Float64() - 1)))
			}
			if len(v) > 1 {
				v[0], v[len(v)-1] = -3e38, 3e38
			}
		}},
		{"float32-subnormals", func(rng *rand.Rand, v []float64, _ int) {
			for i := range v {
				v[i] = float64(math.Float32frombits(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31))
			}
		}},
	}
}

// checkCodec encodes payload at the given width on the current path and
// requires the message — metadata and packed levels — to equal the per-value
// reference's byte for byte, the sender's roundtrip slice to equal the
// reference's bit for bit, and Read and AXPY over the message in a frame to
// equal the reference decoder's values bit for bit.
func checkCodec(payload []float64, bits int, adaptive bool, alpha float64) error {
	n := len(payload)
	m := &Message{Payload: payload}
	wantRT := make([]float64, n)
	want := referenceEncodeQuantized(nil, m, bits, adaptive, wantRT)
	gotRT := make([]float64, n)
	got := encodeQuantized(nil, m, bits, adaptive, gotRT)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("encoded message\n got  %x\n want %x", got, want)
	}
	if plain := encodeQuantized(nil, m, bits, adaptive, nil); !bytes.Equal(plain, want) {
		return fmt.Errorf("message encoded without a roundtrip slice\n got  %x\n want %x", plain, want)
	}
	if n == 0 {
		return nil // a frame's messages hold at least one value
	}
	frame := referenceFrame(Frame{Width: n, Bits: bits, Adaptive: adaptive, Count: 1}, nil, got)
	_, refs, err := DecodeAll(frame)
	if err != nil {
		return fmt.Errorf("reference decode: %v", err)
	}
	ref := refs[0]
	base, read, acc := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range base {
		base[i] = float64(i%7) - 2.5
	}
	copy(acc, base)
	for _, consume := range []func(*Decoder) error{
		func(d *Decoder) error { return d.Read(read) },
		func(d *Decoder) error { return d.AXPY(alpha, acc) },
	} {
		dec := NewDecoder(frame)
		if _, err := dec.Next(); err != nil {
			return err
		}
		if err := consume(&dec); err != nil {
			return err
		}
	}
	for i, v := range ref.Payload {
		// A NaN alpha meeting a poisoned unit's NaN may keep either payload.
		axpy := base[i] + alpha*v
		axpyOK := sameF64(acc[i], axpy) || math.IsNaN(alpha) && math.IsNaN(acc[i]) && math.IsNaN(axpy)
		if !sameF64(gotRT[i], wantRT[i]) || !sameF64(gotRT[i], v) || !sameF64(read[i], v) || !axpyOK {
			return fmt.Errorf("value %d: roundtrip %v (reference %v), Read %v, AXPY %v; reference decodes %v, accumulates %v",
				i, gotRT[i], wantRT[i], read[i], acc[i], v, axpy)
		}
	}
	return nil
}

// TestCodecKernelsMatchReference: widths 1..16 × lengths 0..67 (every tail
// around the vector width) × every payload shape, on the vector path and on
// the Go path: both must produce the per-value reference's bytes and bits.
func TestCodecKernelsMatchReference(t *testing.T) {
	defer func(prev bool) { gridSIMD = prev }(gridSIMD)
	available := gridSIMD
	for _, c := range codecCases() {
		rng := rand.New(rand.NewSource(23))
		for bits := 1; bits <= 16; bits++ {
			for n := 0; n <= 67; n++ {
				payload := make([]float64, n)
				c.fill(rng, payload, bits)
				for _, simd := range []bool{false, true} {
					if simd && !available {
						continue
					}
					gridSIMD = simd
					if err := checkCodec(payload, bits, (n+bits)%2 == 1, -0.75); err != nil {
						t.Fatalf("%s bits=%d n=%d simd=%v: %v\npayload %v", c.name, bits, n, simd, err, payload)
					}
				}
			}
		}
	}
}

// TestCodecLongPayload crosses the levels chunk at widths that do and do not
// divide a byte.
func TestCodecLongPayload(t *testing.T) {
	defer func(prev bool) { gridSIMD = prev }(gridSIMD)
	available := gridSIMD
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{levelChunk - 1, levelChunk, levelChunk + 1, 3*levelChunk + 5} {
		payload := make([]float64, n)
		for i := range payload {
			payload[i] = rng.NormFloat64()
		}
		for _, bits := range []int{1, 3, 4, 7, 8, 11, 16} {
			for _, simd := range []bool{false, true} {
				gridSIMD = simd && available
				if err := checkCodec(payload, bits, bits%2 == 1, 0.5); err != nil {
					t.Fatalf("n=%d bits=%d simd=%v: %v", n, bits, simd, err)
				}
			}
		}
	}
}

// float64Bytes is the little-endian image of v, FuzzGridKernels' payload
// encoding.
func float64Bytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzGridKernels is the differential target for the grid's slice kernels as
// the wire uses them: any eight-byte pattern is a payload value, any width
// and any alpha go, and the vector and Go paths must both reproduce the
// per-value reference (see checkCodec). Seeds: every shape of the kernel
// matrix, at a length with a vector body and a tail.
func FuzzGridKernels(f *testing.F) {
	for i, c := range codecCases() {
		payload := make([]float64, 11)
		bits := 1 + (5*i+7)%16
		c.fill(rand.New(rand.NewSource(int64(i))), payload, bits)
		f.Add(float64Bytes(payload), uint8(bits-1), 0.5)
	}
	f.Add([]byte{}, uint8(0), math.NaN())
	available := gridSIMD
	f.Fuzz(func(t *testing.T, data []byte, width uint8, alpha float64) {
		defer func(prev bool) { gridSIMD = prev }(gridSIMD)
		payload := make([]float64, min(len(data)/8, 4*levelChunk))
		for i := range payload {
			payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		bits := 1 + int(width)%16
		for _, simd := range []bool{false, true} {
			gridSIMD = simd && available
			if err := checkCodec(payload, bits, width&16 != 0, alpha); err != nil {
				t.Fatalf("bits=%d alpha=%v simd=%v: %v\npayload %v", bits, alpha, simd, err, payload)
			}
		}
	})
}

// TestCodecDigests records what each codec put on the wire for a fixed set of
// payloads: the digests were first taken before the quantisation arithmetic
// moved from a value at a time to a payload at a time, and re-recorded once
// when messages lost their headers — each frame then being its batch header
// (plus bitmap) followed by the earlier bytes with every 16-byte message
// header cut out. A changed byte — in a header, a bitmap, a metadata pair, a
// packed level or, through the error-feedback residuals, a reconstructed
// value — fails here by name.
func TestCodecDigests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var msgs []*Message
	for k, n := range []int{32, 32, 7, 33, 1, 130, 32, 0, 64, 5} {
		payload := make([]float64, n)
		scale := math.Ldexp(1, k-4)
		for i := range payload {
			payload[i] = rng.NormFloat64() * scale
		}
		msgs = append(msgs, &Message{Kind: KindNode, Target: int32(100 + k), Payload: payload})
	}
	frames := codecDigestFrames(msgs)
	// encode is one round: every frame at the codec, concatenated.
	encode := func(bits int, adaptive bool, add func(b *Batch, k int)) []byte {
		var out []byte
		for _, fr := range frames {
			f := fr.f
			f.Bits, f.Adaptive = bits, adaptive
			var b Batch
			b.Begin(f)
			for j, k := range fr.ks {
				if f.Sampled {
					b.Present(fr.present[j])
				}
				add(&b, k)
			}
			out = append(out, b.Bytes()...)
		}
		return out
	}
	digest := func(b []byte) string {
		h := fnv.New64a()
		h.Write(b)
		return fmt.Sprintf("%016x", h.Sum64())
	}
	aq := compress.NewAdaptiveQuantizer(2, 8, 0)
	ef := compress.NewErrorFeedback()
	efRound := func() []byte {
		// The payloads differ in width, so each gets its own round slot.
		return encode(8, false, func(b *Batch, k int) {
			key := compress.RoundUnitKey(k, 0)
			payload := append([]float64(nil), msgs[k].Payload...)
			ef.PreCompress(key, payload)
			sent := make([]float64, len(payload))
			b.AddQuantizedRoundtrip(&Message{Payload: payload}, 8, false, sent)
			ef.PostCompress(key, payload, sent)
		})
	}
	for _, codec := range []struct {
		name, want string
		wire       func() []byte
	}{
		{"fp32", "2769deab760814fc", func() []byte { return encode(0, false, func(b *Batch, k int) { b.Add(msgs[k]) }) }},
		{"q8", "c34d9087815fb135", func() []byte { return encode(8, false, func(b *Batch, k int) { b.AddQuantized(msgs[k], 8) }) }},
		{"q4", "3d274d334e340632", func() []byte { return encode(4, false, func(b *Batch, k int) { b.AddQuantized(msgs[k], 4) }) }},
		{"adaptive", "68b97b12c1f3145a", func() []byte {
			return encode(8, true, func(b *Batch, k int) { b.AddAdaptive(msgs[k], aq.ChooseBits(msgs[k].Payload)) })
		}},
		{"q8+EF, rounds 1 and 2", "ab07d28cde900a2f", func() []byte { return append(efRound(), efRound()...) }},
	} {
		if got := digest(codec.wire()); got != codec.want {
			t.Errorf("%s: frames digest %s, recorded %s", codec.name, got, codec.want)
		}
	}
}

// codecFrame is one frame of TestCodecDigests: its header (codec left to
// the caller), the messages it carries and, when sampled, their candidates.
type codecFrame struct {
	f       Frame
	ks      []int
	present []int
}

// codecDigestFrames groups the digest payloads into one frame per width, in
// order of first appearance, sent by the first member's k%4: the three
// 32-wide ones share a sampled frame as candidates 0, 2 and 3 of 5. The
// zero-width payload, which no frame can hold, is left out.
func codecDigestFrames(msgs []*Message) []codecFrame {
	var frames []codecFrame
	at := map[int]int{}
	for k, m := range msgs {
		n := len(m.Payload)
		if n == 0 {
			continue
		}
		i, ok := at[n]
		if !ok {
			i = len(frames)
			at[n] = i
			frames = append(frames, codecFrame{f: Frame{Sender: int32(k % 4), Width: n}})
		}
		frames[i].ks = append(frames[i].ks, k)
		frames[i].f.Count++
	}
	frames[0].f.Count, frames[0].f.Sampled, frames[0].present = 5, true, []int{0, 2, 3}
	return frames
}
