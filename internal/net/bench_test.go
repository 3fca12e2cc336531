package net

import (
	"fmt"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
)

// BenchmarkCoordinatorRound measures one steady AggregateInto round of a
// four-node unix-socket fleet at the 10k preset — scatter, mesh round,
// gather — at the two widths a 2-layer GCN aggregates at. B/op counts the
// coordinator and the nodes together: they share the process.
func BenchmarkCoordinatorRound(b *testing.B) {
	const nparts = 4
	d, err := datasets.ByName("reddit-sim-10k", 1)
	if err != nil {
		b.Fatal(err)
	}
	part := partition.Partition(d.Graph, nparts, partition.EdgeCut, partition.Config{Seed: 1})
	plan := core.PlanConfig{Grouping: core.GroupingConfig{K: 8, MaxPivots: 8, Seed: 1}}
	for _, mode := range []struct {
		name string
		cfg  dist.Config
	}{{"semantic", dist.Semantic(plan)}, {"vanilla", dist.Config{}}} {
		for _, cols := range []int{32, 16} {
			b.Run(fmt.Sprintf("%s/cols%d", mode.name, cols), func(b *testing.B) {
				tc := startCluster(b, nparts, quickNodeOpts(), quickCoordOpts())
				if err := tc.coord.Setup(d.Graph, part, mode.cfg); err != nil {
					b.Fatal(err)
				}
				h := randMat(d.NumNodes(), cols, 1)
				dst := tensor.New(d.NumNodes(), cols)
				tc.coord.StartEpoch(0)
				for warm := 0; warm < 2; warm++ { // a mesh link cycles two buffers
					if err := tc.coord.AggregateInto(dst, h, false); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tc.coord.AggregateInto(dst, h, false); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				tc.coord.Shutdown()
			})
		}
	}
}
