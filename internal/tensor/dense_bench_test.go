package tensor_test

import (
	"fmt"
	"math/rand"
	"testing"

	"scgnn/internal/gnn"
	"scgnn/internal/tensor"
)

// passThrough is an aggregator that costs nothing, so a GCN over it is the
// dense side of an epoch and nothing else.
type passThrough struct{}

func (passThrough) Forward(h *tensor.Matrix) *tensor.Matrix  { return h }
func (passThrough) Backward(g *tensor.Matrix) *tensor.Matrix { return g }

// BenchmarkDenseEpoch times everything in a training epoch of the
// benchmark's 2-layer hidden-32 GCN except the aggregate — two linear layers
// forward and backward, ReLU, masked loss, argmax accuracy, Adam — at the
// 10k and 100k presets, vector and Go kernels in one run.
func BenchmarkDenseEpoch(b *testing.B) {
	defer tensor.SetSIMD(tensor.SetSIMD(true))
	for _, n := range []int{10_000, 100_000} {
		rng := rand.New(rand.NewSource(14))
		x := tensor.New(n, 32)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		labels := make([]int, n)
		train, val := make([]bool, n), make([]bool, n)
		for i := range labels {
			labels[i] = rng.Intn(32)
			train[i], val[i] = i%10 < 6, i%10 >= 8
		}
		for _, name := range []string{"simd", "generic"} {
			if name == "simd" && !tensor.SIMDAvailable {
				continue
			}
			b.Run(fmt.Sprintf("%dk/%s", n/1000, name), func(b *testing.B) {
				tensor.SetSIMD(name == "simd")
				model := gnn.NewGCN(passThrough{}, []int{32, 32, 32}, rand.New(rand.NewSource(15)))
				t := gnn.NewTrainer(model, x, labels, train, val, val, gnn.TrainConfig{Epochs: b.N + 1, LR: 0.02})
				if _, err := t.RunEpoch(); err != nil { // sizes the retained buffers
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := t.RunEpoch(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
