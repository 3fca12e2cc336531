package gnn

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"scgnn/internal/datasets"
)

// goldenLosses are the per-epoch training-loss bits of four short
// LocalAggregator runs, recorded at the commit before the dense layers
// moved to the tiled AVX2 products, the row split and the retained buffers
// (PR 13). That change promises to leave every output bit alone; this test
// holds it, and every later change to tensor/nn/gnn, to the promise. The
// small runs have widths that are not multiples of four (scalar remainder
// columns); the large ones cross the row-split threshold. Both shapes narrow
// at the output layer (10 → 5, 32 → 8), so they were re-recorded once when
// that layer began multiplying by W before its aggregate (MultipliesFirst):
// the same function in another rounding order, every loss within 4e-16
// relative of the aggregate-first one. They were re-recorded once more when
// the loss gradient took one exp a logit (exp(l − max)/sum in place of the
// exponentiated log-softmax, a few ulps apart): two losses moved, by 1 and 2
// ulps.
var goldenLosses = map[string][]uint64{
	"gcn/small":  {0x3ffc3f718e88201d, 0x3ffa34a889ff44d3, 0x3ff89161b8752751, 0x3ff73542a3e71f6c, 0x3ff605dada4f2d14, 0x3ff4e282ef7f5278},
	"gcn/large":  {0x4000bf8768ebef4c, 0x3ffbdcd835af8ec5, 0x3ff718fd2435af6a, 0x3ff2f7c3c6b28358, 0x3fee9ea93705aee8, 0x3fe82a3bc250909e},
	"sage/small": {0x3ffcad7a904bcdac, 0x3ff5ed46f2db0fb1, 0x3ff0e8ff966cc5bf, 0x3fea2d57edc0b6d4, 0x3fe40799c5cc0bcc, 0x3fdde04b245991bc},
	"sage/large": {0x4005aee025ef9266, 0x3ff9031c30f99297, 0x3fed8aaed0b946c9, 0x3fe19784b2164a01, 0x3fd4274590ffe1e6, 0x3fc67c9b2f502c02},
}

func goldenRun(t *testing.T, model string, large bool) []uint64 {
	spec := datasets.Spec{Name: "golden", Nodes: 300, AvgDegree: 8, Classes: 5, FeatureDim: 13, Homophily: 0.8, Seed: 3}
	dims := []int{13, 10, 5}
	if large {
		spec.Nodes, spec.Classes, spec.FeatureDim = 3000, 8, 16
		dims = []int{16, 32, 8}
	}
	d := datasets.Generate(spec)
	agg := NewLocalAggregator(d.Graph)
	rng := rand.New(rand.NewSource(5))
	var m Model
	if model == "gcn" {
		m = NewGCN(agg, dims, rng)
	} else {
		m = NewSAGE(agg, dims, rng)
	}
	res := runTrainer(t, NewTrainer(m, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, TrainConfig{Epochs: 6, LR: 0.02}))
	var bits []uint64
	for _, e := range res.Epochs {
		bits = append(bits, math.Float64bits(e.Loss))
	}
	return bits
}

func TestGoldenLossBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64 (math.Exp and multiply-add fusion differ elsewhere)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, model := range []string{"gcn", "sage"} {
			for _, large := range []bool{false, true} {
				name := model + "/small"
				if large {
					name = model + "/large"
				}
				got := goldenRun(t, model, large)
				if !slices.Equal(got, goldenLosses[name]) {
					t.Errorf("%s at GOMAXPROCS=%d: loss bits\n got %#x\nwant %#x", name, procs, got, goldenLosses[name])
				}
			}
		}
	}
}
