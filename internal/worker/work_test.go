package worker

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"scgnn/internal/exchange"
	"scgnn/internal/gnn"
)

// laneWork is one epoch of a lane's pinned work: frame bytes, messages, and
// the five simnet.Work counters.
type laneWork struct {
	bytes, msgs                      int64
	flops, quant, sample, cache, sem int64
}

func (w laneWork) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d}", w.bytes, w.msgs, w.flops, w.quant, w.sample, w.cache, w.sem)
}

// TestLaneWorkPinned pins, per epoch, the traffic and processing counters of
// a two-epoch GCN training run on a three-worker cluster for every lane of
// the method matrix, on one fixed graph: what the modeled epoch time is
// computed from. A change that moves any of them shows here, lane by lane and
// counter by counter. Recorded when a boundary row began shipping once per
// peer (halo stars, fanned out at the receiver): on the baseline lanes bytes,
// messages and quantised values fell to about a third, the delivered terms
// (ComputeFlops), sampled edges and cache values held, and no semantic lane
// moved.
func TestLaneWorkPinned(t *testing.T) {
	want := map[string][2]laneWork{
		"aquant":             {{7550, 633, 33000, 2321, 0, 0, 0}, {4723, 422, 18000, 1266, 0, 0, 0}},
		"delay3":             {{9536, 633, 33000, 0, 0, 1650, 0}, {0, 0, 9168, 0, 0, 900, 0}},
		"nsampling":          {{4939, 310, 24870, 0, 2208, 0, 0}, {4695, 289, 23806, 0, 2208, 0, 0}},
		"quant4+ef":          {{6793, 633, 33000, 2321, 0, 0, 0}, {6793, 633, 33000, 2321, 0, 0, 0}},
		"quant8":             {{7637, 633, 33000, 2321, 0, 0, 0}, {4810, 422, 18000, 1266, 0, 0, 0}},
		"sampling":           {{7739, 502, 25020, 0, 2208, 0, 0}, {7551, 493, 24856, 0, 2208, 0, 0}},
		"semantic":           {{2496, 153, 32076, 0, 0, 0, 7590}, {1392, 102, 17496, 0, 0, 0, 4140}},
		"semantic+delay":     {{2496, 153, 32076, 0, 0, 1650, 7590}, {0, 0, 9168, 0, 0, 900, 0}},
		"semantic+nsampling": {{1353, 74, 23896, 0, 0, 0, 3519}, {1425, 78, 24918, 0, 0, 0, 4047}},
		"semantic+quant":     {{2037, 153, 32076, 561, 0, 0, 7590}, {1290, 102, 17496, 306, 0, 0, 4140}},
		"semantic+quant+ef":  {{1833, 153, 32076, 561, 0, 0, 7590}, {1833, 153, 32076, 561, 0, 0, 7590}},
		"semantic+sampling":  {{1537, 88, 25818, 0, 0, 0, 4488}, {1285, 69, 23242, 0, 0, 0, 3198}},
		"vanilla":            {{9536, 633, 33000, 0, 0, 0, 0}, {5232, 422, 18000, 0, 0, 0, 0}},
	}
	d, part := setup(t, 3)
	lanes := exchange.MethodMatrix(4)
	names := make([]string, 0, len(lanes))
	for name := range lanes {
		names = append(names, name)
	}
	slices.Sort(names)
	var table strings.Builder
	for _, name := range names {
		c := NewClusterFromConfig(d.Graph, part, 3, lanes[name])
		model := gnn.NewGCN(c, []int{d.FeatureDim(), 8, d.NumClasses}, rand.New(rand.NewSource(1)))
		trn := gnn.NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, gnn.TrainConfig{Epochs: 2, LR: 0.02})
		var got [2]laneWork
		for epoch := range got {
			c.ResetTraffic()
			if _, err := trn.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			s := c.CaptureEpoch()
			got[epoch] = laneWork{s.TotalBytes, s.TotalMessages, s.ComputeFlops, s.QuantValues, s.SampleEdges, s.CacheValues, s.SemanticValues}
		}
		c.Close()
		fmt.Fprintf(&table, "\t\t%q: {%v, %v},\n", name, got[0], got[1])
		if got != want[name] {
			t.Errorf("%s: epochs %v %v, want %v %v", name, got[0], got[1], want[name][0], want[name][1])
		}
	}
	if t.Failed() {
		t.Logf("measured:\n%s", table.String())
	}
}
