// Command scgnn-calibrate measures the per-unit costs of the hot operations
// the epoch-time model charges — quantization round-trips, semantic
// fuse/deliver, delay-slot adds, sampling scans — on the local machine,
// and prints them next to the shipped CostModel constants. Use it to re-base
// simnet.DefaultCostModel on different hardware.
//
// The shipped constants intentionally model a GPU-class worker (the paper's
// testbed), so they are smaller than what this Go process measures; what
// must match is the *ratio* between the per-method overheads, which is what
// drives Table 1's orderings.
package main

import (
	"fmt"
	"math/rand"
	"testing"

	"scgnn/internal/compress"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
)

func main() {
	const dim = 32
	rng := rand.New(rand.NewSource(1))
	payload := make([]float64, dim)
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}

	perValue := func(b testing.BenchmarkResult, values int) float64 {
		return b.T.Seconds() / float64(b.N) / float64(values)
	}

	quant := testing.Benchmark(func(b *testing.B) {
		q := compress.NewQuantizer(8)
		buf := make([]float64, dim)
		for i := 0; i < b.N; i++ {
			copy(buf, payload)
			q.Roundtrip(buf)
		}
	})

	fuse := testing.Benchmark(func(b *testing.B) {
		acc := make([]float64, dim)
		for i := 0; i < b.N; i++ {
			tensor.AXPY(0.5, payload, acc)
		}
	})

	// What a delayed round pays per cached value: the slot's rows added into
	// the output (the round body's addOwnRows), fresh round and replay alike.
	cache := testing.Benchmark(func(b *testing.B) {
		slot, out := tensor.New(64, dim), tensor.New(64, dim)
		for i := 0; i < b.N; i++ {
			for r := 0; r < slot.Rows; r++ {
				tensor.AXPY(1, slot.Row(r), out.Row(r))
			}
		}
	})

	sample := testing.Benchmark(func(b *testing.B) {
		s := compress.NewSampler(0.5, 1)
		for i := 0; i < b.N; i++ {
			s.Keep()
		}
	})

	def := simnet.DefaultCostModel()
	fmt.Println("measured per-unit costs on this machine vs shipped CostModel:")
	fmt.Printf("  %-18s %12s %14s\n", "operation", "measured", "model constant")
	row := func(name string, measured, model float64) {
		fmt.Printf("  %-18s %10.2f ns %11.2f ns\n", name, measured*1e9, model*1e9)
	}
	row("quant/value", perValue(quant, dim), def.QuantPerValue)
	row("fuse/value", perValue(fuse, dim), def.FusePerValue)
	row("cache/value", perValue(cache, 64*dim), def.CachePerValue)
	row("sample/edge", perValue(sample, 1), def.SamplePerEdge)

	mq := perValue(quant, dim)
	mf := perValue(fuse, dim)
	fmt.Printf("\nmeasured quant/fuse ratio: %.1fx (model assumes %.1fx)\n",
		mq/mf, def.QuantPerValue/def.FusePerValue)
	fmt.Println("\nto re-base, copy the measured values into simnet.DefaultCostModel.")
}
