package worker

import (
	"math/rand"
	"runtime"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/exchange"
	"scgnn/internal/gnn"
)

// TestTrainingFootprint holds a training epoch to the node-sized matrices it
// needs. After its first epoch on a 10k Cluster, a [32, 32, 16] GCN keeps
// layer 0's aggregate and activation (32 + 32 columns) and layer 1's product
// H·W and aggregate, the logits (16 + 16): 96 columns of 8 bytes a node.
// Layer 1's backward aggregate lands in its product and ∂L/∂H over H, whose
// ReLU keeps a bit mask; the loss overwrites the logits with their gradient.
// One buffer more is at least 16 columns, 1.28 MB, past the 0.5 MB of slack
// the trainer's per-node scratch, the mask and the model's parameters take.
// The cluster is warmed by a first model, so its round buffers are not
// counted.
func TestTrainingFootprint(t *testing.T) {
	d := datasets.RedditSim10K(1)
	part := make([]int, d.NumNodes())
	for u := range part {
		part[u] = 4 * u / len(part)
	}
	c := NewClusterFromConfig(d.Graph, part, 4, exchange.Config{Seed: 1})
	defer c.Close()
	firstEpoch := func() *gnn.Trainer {
		m := gnn.NewGCN(c, []int{32, 32, 16}, rand.New(rand.NewSource(1)))
		tr := gnn.NewTrainer(m, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, gnn.TrainConfig{Epochs: 2, LR: 0.01})
		if _, err := tr.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	firstEpoch()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := firstEpoch()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	n := uint64(d.NumNodes())
	retained, budget := after.HeapAlloc-before.HeapAlloc, 8*n*96+512<<10
	t.Logf("first epoch retains %.2f MB, budget %.2f MB", float64(retained)/1e6, float64(budget)/1e6)
	if retained > budget {
		t.Fatalf("a first epoch retains %d B, over the %d B of 96 node-sized columns plus slack", retained, budget)
	}
}
