package wire

import (
	"math/rand"
	"testing"

	"scgnn/internal/compress"
)

// The codec rows of `make bench`: a batch of benchMsgs payloads as wide as the
// scale presets' hidden layer, encoded into a retained buffer and streamed
// back out through Decoder.AXPY — what one worker does for one peer in one
// round. ns/val is the figure bench/'s wire.*_ns_per_val probes report.
const (
	benchMsgs  = 1024
	benchWidth = 32
)

func benchPayloads() []float64 {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, benchMsgs*benchWidth)
	for i := range v {
		v[i] = float64(float32(rng.NormFloat64()))
	}
	return v
}

// benchFill refills batch through add, staging every message in msg (the
// caller's, so that the one header struct that escapes into add is allocated
// once per benchmark and not once per fill).
func benchFill(batch *Batch, msg *Message, payloads []float64, add func(*Batch, *Message)) {
	batch.Reset()
	msg.Kind = KindNode
	for k := 0; k < benchMsgs; k++ {
		msg.Target = int32(k)
		msg.Payload = payloads[k*benchWidth : (k+1)*benchWidth]
		add(batch, msg)
	}
}

func reportPerValue(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(benchMsgs*benchWidth), "ns/val")
}

func BenchmarkEncodeQuantized(b *testing.B) {
	aq := compress.NewAdaptiveQuantizer(2, 8, 0)
	for _, enc := range []struct {
		name string
		add  func(*Batch, *Message)
	}{
		{"8", func(bt *Batch, m *Message) { bt.AddQuantized(m, 8) }},
		{"4", func(bt *Batch, m *Message) { bt.AddQuantized(m, 4) }},
		{"adaptive", func(bt *Batch, m *Message) { bt.AddAdaptive(m, aq.ChooseBits(m.Payload)) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			payloads := benchPayloads()
			var batch Batch
			var msg Message
			benchFill(&batch, &msg, payloads, enc.add) // grows the buffer once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFill(&batch, &msg, payloads, enc.add)
			}
			reportPerValue(b)
		})
	}
}

func BenchmarkDecoderAXPY(b *testing.B) {
	for _, enc := range []struct {
		name string
		add  func(*Batch, *Message)
	}{
		{"fp32", func(bt *Batch, m *Message) { bt.Add(m) }},
		{"8", func(bt *Batch, m *Message) { bt.AddQuantized(m, 8) }},
		{"4", func(bt *Batch, m *Message) { bt.AddQuantized(m, 4) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			var batch Batch
			benchFill(&batch, new(Message), benchPayloads(), enc.add)
			buf := batch.Bytes()
			acc := make([]float64, benchWidth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec := NewDecoder(buf)
				for dec.More() {
					if _, err := dec.Next(); err != nil {
						b.Fatal(err)
					}
					if err := dec.AXPY(0.5, acc); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportPerValue(b)
		})
	}
}
