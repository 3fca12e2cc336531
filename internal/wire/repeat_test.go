package wire

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestRepeatEqualsFreshAdd: a frame whose later copies of a payload are
// Repeats of its first message holds the bytes of one that encodes every
// message afresh — at fp32, q8, q4 and adaptive, sampled and not — and the
// streaming decoder reads it back as that frame.
func TestRepeatEqualsFreshAdd(t *testing.T) {
	const width = 11
	rng := rand.New(rand.NewSource(1))
	payloads := make([][]float64, 3)
	for i := range payloads {
		payloads[i] = make([]float64, width)
		for j := range payloads[i] {
			payloads[i][j] = rng.NormFloat64() * float64(i+1)
		}
	}
	// The message sequence: which payload each carries, first sightings
	// encoded, later ones repeated, out of order as a backward walk meets
	// its senders.
	seq := []int{0, 0, 1, 0, 2, 2, 1, 0, 2}
	adaptiveBits := []int{3, 8, 5}
	codecs := []struct {
		name     string
		bits     int
		adaptive bool
	}{{"fp32", 0, false}, {"q8", 8, false}, {"q4", 4, false}, {"adaptive", 8, true}}
	for _, c := range codecs {
		for _, sampled := range []bool{false, true} {
			f := Frame{Sender: 5, Width: width, Bits: c.bits, Adaptive: c.adaptive, Count: len(seq)}
			// A sampled frame holds candidate 2k+1 as message k.
			candidate := func(k int) int { return k }
			if sampled {
				f.Count, f.Sampled = 2*len(seq)+3, true
				candidate = func(k int) int { return 2*k + 1 }
			}
			add := func(b *Batch, p int) {
				m := &Message{Payload: payloads[p]}
				switch {
				case c.bits == 0:
					b.Add(m)
				case c.adaptive:
					b.AddQuantizedRoundtrip(m, adaptiveBits[p], true, nil)
				default:
					b.AddQuantizedRoundtrip(m, c.bits, false, nil)
				}
			}
			var fresh, repeated Batch
			fresh.Begin(f)
			repeated.Begin(f)
			spans := make(map[int][2]int)
			for k, p := range seq {
				if sampled {
					fresh.Present(candidate(k))
					repeated.Present(candidate(k))
				}
				add(&fresh, p)
				if s, ok := spans[p]; ok {
					repeated.Repeat(s[0], s[1])
					continue
				}
				from := repeated.Size()
				add(&repeated, p)
				spans[p] = [2]int{from, repeated.Size()}
			}
			if !bytes.Equal(repeated.Bytes(), fresh.Bytes()) || repeated.Len() != fresh.Len() {
				t.Fatalf("%s sampled=%v: a frame of repeats differs from the fresh one", c.name, sampled)
			}
			// The decoder reads every copy back at its candidate, as the
			// payload's first message decodes.
			dec := NewDecoder(repeated.Bytes())
			if got, err := dec.Frame(); err != nil || got != f {
				t.Fatalf("%s sampled=%v: header %+v, %v", c.name, sampled, got, err)
			}
			values := make([][]float64, len(payloads))
			for k, p := range seq {
				hd, err := dec.Next()
				if err != nil {
					t.Fatalf("%s sampled=%v: message %d: %v", c.name, sampled, k, err)
				}
				if want := candidate(k); hd.Index != want || hd.N != width {
					t.Fatalf("%s sampled=%v: message %d reads as %+v, want candidate %d", c.name, sampled, k, hd, want)
				}
				got := make([]float64, width)
				if err := dec.Read(got); err != nil {
					t.Fatal(err)
				}
				if values[p] == nil {
					values[p] = got
				} else if !slices.Equal(got, values[p]) {
					t.Fatalf("%s sampled=%v: message %d decodes to %v, its payload's first to %v", c.name, sampled, k, got, values[p])
				}
			}
			if dec.More() {
				t.Fatalf("%s sampled=%v: bytes left after the last message", c.name, sampled)
			}
		}
	}
}

// TestRepeatRefusesForeignSpans: a Repeat the open frame cannot admit panics,
// as an Add of it would: a span that is not one whole message of the frame,
// or a message the frame has no room for.
func TestRepeatRefusesForeignSpans(t *testing.T) {
	const width = 6
	m := &Message{Payload: []float64{1, -2, 3, 0.5, 0, 7}}
	q8 := Frame{Width: width, Bits: 8, Count: 3}
	msg := FrameHeaderBytes + EncodedSizeQuantized(width, 8)
	// open returns a batch holding one q8 message at [FrameHeaderBytes, msg).
	open := func(f Frame) *Batch {
		b := &Batch{}
		b.Begin(f)
		if f.Sampled {
			b.Present(0)
		}
		b.AddQuantizedRoundtrip(m, f.Bits, f.Adaptive, nil)
		return b
	}
	cases := []struct {
		name     string
		b        *Batch
		from, to int
	}{
		{"no frame", &Batch{}, 0, 4},
		{"short span", open(q8), FrameHeaderBytes, msg - 1},
		{"long span", open(q8), FrameHeaderBytes - 1, msg},
		{"span in the header", open(q8), 0, msg - FrameHeaderBytes},
		{"span past the end", open(q8), FrameHeaderBytes + 1, msg + 1},
		{"full frame", open(Frame{Width: width, Bits: 8, Count: 1}), FrameHeaderBytes, msg},
		{"sampled, not present", open(Frame{Width: width, Bits: 8, Count: 9, Sampled: true}), FrameHeaderBytes + 2, msg + 2},
		{"adaptive width 0", func() *Batch {
			b := open(Frame{Width: width, Bits: 8, Adaptive: true, Count: 3})
			b.buf[FrameHeaderBytes+8] = 0
			return b
		}(), FrameHeaderBytes, FrameHeaderBytes + 9},
		{"adaptive width past the bound", func() *Batch {
			b := open(Frame{Width: width, Bits: 4, Adaptive: true, Count: 3})
			b.buf[FrameHeaderBytes+8] = 5
			return b
		}(), FrameHeaderBytes, FrameHeaderBytes + EncodedSizeAdaptive(width, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				// The batch's own refusal, not a runtime fault on the way.
				if msg, ok := recover().(string); !ok || !strings.HasPrefix(msg, "wire: ") {
					t.Fatalf("Repeat(%d, %d) panicked with %v, want the batch's refusal", tc.from, tc.to, msg)
				}
			}()
			tc.b.Repeat(tc.from, tc.to)
		})
	}
}
