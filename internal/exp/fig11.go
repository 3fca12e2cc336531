package exp

import (
	"scgnn/internal/core"
	"scgnn/internal/dist"
)

// fig11 reproduces the differential optimization study of Fig. 11: under
// semantic compression, each connection type is removed in turn and the
// resulting traffic and accuracy are measured. The paper's discovery:
// removing any single type costs little accuracy, and "without-O2O" is the
// only variant that also slashes the residual traffic (to 24–45%), since
// after compression the raw O2O messages dominate the volume.
func fig11(j *job) {
	tb := j.table("Fig. 11: differential optimization under semantic compression",
		"dataset", "variant", "comm MB/epoch", "norm volume", "test acc", "acc delta")

	variants := []struct {
		name string
		mask core.DropMask
	}{
		{"full", core.DropNone},
		{"without-O2O", core.DropO2O},
		{"without-O2M", core.DropMask{O2M: true}},
		{"without-M2O", core.DropMask{M2O: true}},
		{"without-M2M", core.DropMask{M2M: true}},
	}

	for _, ds := range benchDatasets(j.Options) {
		part := j.part(ds)
		var full *dist.Result
		for _, v := range variants {
			cfg := dist.Semantic(core.PlanConfig{
				Grouping: core.GroupingConfig{Seed: j.Seed},
				Drop:     v.mask,
			})
			res := j.train(ds, part, j.Partitions, cfg, j.runCfg())
			if v.name == "full" {
				full = res
			}
			norm := 1.0
			delta := 0.0
			if full != nil && full.BytesPerEpoch > 0 {
				norm = res.BytesPerEpoch / full.BytesPerEpoch
				delta = res.TestAcc - full.TestAcc
			}
			tb.AddRow(ds.Name, v.name, res.MBPerEpoch(), norm, res.TestAcc, delta)
			if v.name == "without-O2O" {
				j.AddNote("%s: without-O2O keeps %.0f%% of compressed traffic at %+.3f accuracy",
					ds.Name, 100*norm, delta)
			}
		}
	}
}
