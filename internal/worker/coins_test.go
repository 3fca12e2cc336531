package worker

import (
	"testing"

	"scgnn/internal/exchange"
	"scgnn/internal/tensor"
)

// samplingLanes are the method matrix's lanes whose only per-pair state is
// their sampling coin.
func samplingLanes() map[string]exchange.Config {
	lanes := map[string]exchange.Config{}
	for _, name := range []string{"sampling", "nsampling", "semantic+sampling", "semantic+nsampling"} {
		lanes[name] = exchange.MethodMatrix(6)[name]
	}
	return lanes
}

// coinEpoch runs one forward and one backward round of epoch epoch on c from
// a fresh traffic count and returns both aggregates and the epoch's bytes.
func coinEpoch(c *Cluster, epoch int, h, g *tensor.Matrix) (fwd, bwd *tensor.Matrix, bytes int64) {
	c.ResetTraffic()
	c.StartEpoch(epoch)
	fwd, bwd = c.Forward(h), c.Backward(g)
	return fwd, bwd, c.Snapshot().TotalBytes
}

// TestSamplingStartsAtAnyEpoch: a sampling coin is a function of (pair,
// epoch, round, unit), so on every sampling lane a cluster that ran epochs
// 0..k−1 and one built fresh and started at epoch k give bit-equal aggregates
// and equal bytes in epoch k — no epoch before it leaves anything behind.
func TestSamplingStartsAtAnyEpoch(t *testing.T) {
	d, part := setup(t, 3)
	const nparts, k = 3, 3
	h, g := randMat(d.NumNodes(), 5, 61), randMat(d.NumNodes(), 5, 62)
	for name, cfg := range samplingLanes() {
		ran := NewClusterFromConfig(d.Graph, part, nparts, cfg)
		for epoch := 0; epoch < k; epoch++ {
			coinEpoch(ran, epoch, h, g)
		}
		fresh := NewClusterFromConfig(d.Graph, part, nparts, cfg)
		wantF, wantB, wantBytes := coinEpoch(ran, k, h, g)
		gotF, gotB, gotBytes := coinEpoch(fresh, k, h, g)
		ran.Close()
		fresh.Close()
		if !sameBits(gotF, wantF) || !sameBits(gotB, wantB) || gotBytes != wantBytes {
			t.Errorf("%s: epoch %d from a fresh cluster differs from the one that ran 0..%d (%d B, want %d B)",
				name, k, k-1, gotBytes, wantBytes)
		}
	}
}

// TestSamplingRepartitionEqualsFresh: on every sampling lane, a cluster that
// trains two epochs and repartitions incrementally — clean pairs keep their
// samplers, dirty ones are re-seeded — runs epoch 2 exactly as a cluster
// built from scratch on the new partition does.
func TestSamplingRepartitionEqualsFresh(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	// Move partition-0 nodes with no neighbour in partition 2 over to 1: the
	// 1↔2 boundary sets cannot change, so those two pairs stay clean.
	next := append([]int(nil), part...)
	for u := range part {
		touches2 := part[u] != 0
		for _, v := range d.Graph.Neighbors(int32(u)) {
			touches2 = touches2 || part[v] == 2
		}
		if !touches2 {
			next[u] = 1
		}
	}
	h, g := randMat(d.NumNodes(), 5, 63), randMat(d.NumNodes(), 5, 64)
	for name, cfg := range samplingLanes() {
		moved := NewClusterFromConfig(d.Graph, part, nparts, cfg)
		for epoch := 0; epoch < 2; epoch++ {
			coinEpoch(moved, epoch, h, g)
		}
		dirty, err := moved.Repartition(next)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirty) == 0 || len(dirty) == nparts*(nparts-1) {
			t.Fatalf("%s: dirty set %v leaves no clean or no dirty pair", name, dirty)
		}
		fresh := NewClusterFromConfig(d.Graph, next, nparts, cfg)
		wantF, wantB, wantBytes := coinEpoch(fresh, 2, h, g)
		gotF, gotB, gotBytes := coinEpoch(moved, 2, h, g)
		moved.Close()
		fresh.Close()
		if !sameBits(gotF, wantF) || !sameBits(gotB, wantB) || gotBytes != wantBytes {
			t.Errorf("%s: repartitioned cluster's epoch 2 differs from a fresh one's (%d B, want %d B)", name, gotBytes, wantBytes)
		}
	}
}
