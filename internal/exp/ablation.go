package exp

import (
	"scgnn/internal/core"
	"scgnn/internal/dist"
	"scgnn/internal/simnet"
	"scgnn/internal/stats"
)

// The ablation experiments isolate the design choices DESIGN.md §5 calls
// out. They are extensions beyond the paper's figures (the suite's "abl-*"
// ids) and quantify how much each ingredient of SC-GNN contributes.

// ablSimilarity ablates the similarity measure: the full training pipeline
// with semantic grouping vs Jaccard grouping. The paper motivates the
// squared-numerator measure by grouping quality (Fig. 6); this experiment
// measures the end-to-end consequence on volume and accuracy.
func ablSimilarity(j *job) {
	tb := j.table("ablation: similarity measure (end-to-end)",
		"dataset", "measure", "comm MB/epoch", "test acc", "groups")

	for _, ds := range benchDatasets(j.Options) {
		part := j.part(ds)
		for _, jaccard := range []bool{false, true} {
			cfg := core.GroupingConfig{Seed: j.Seed}
			name := "semantic"
			if jaccard {
				cfg.Sim = core.JaccardSimilarity{}
				name = "jaccard"
			}
			plans, err := core.BuildAllPlans(ds.Graph, part, j.Partitions, core.PlanConfig{Grouping: cfg})
			j.check(err)
			groups := 0
			for _, p := range plans {
				groups += len(p.Groups)
			}
			res := j.train(ds, part, j.Partitions,
				dist.Semantic(core.PlanConfig{Grouping: cfg}), j.runCfg())
			tb.AddRow(ds.Name, name, res.MBPerEpoch(), res.TestAcc, groups)
		}
	}
}

// ablGroupCount sweeps a fixed group count against the EEP auto-selection,
// reproducing the Sec. 5.4 trade-off: more groups → better cohesion and
// slightly better accuracy, but the compression rate "suffers accelerated
// declines" beyond the EEP.
func ablGroupCount(j *job) {
	ds := benchDatasets(j.Options)[0]
	part := j.part(ds)
	tb := j.table("ablation: group count (dense dataset)",
		"k", "comm MB/epoch", "norm volume", "test acc")
	fig := j.figure("volume vs group count", "k", "norm volume")
	s := fig.AddSeries("semantic")

	ks := []int{2, 5, 10, 20, 40}
	if j.Quick {
		ks = []int{2, 8, 20}
	}
	var base float64
	for _, k := range ks {
		cfg := dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{K: k, Seed: j.Seed}})
		res := j.train(ds, part, j.Partitions, cfg, j.runCfg())
		if base == 0 {
			base = res.BytesPerEpoch
		}
		tb.AddRow(k, res.MBPerEpoch(), res.BytesPerEpoch/base, res.TestAcc)
		s.Add(float64(k), res.BytesPerEpoch/base)
	}
	eep := j.train(ds, part, j.Partitions, semanticCfg(j.Seed), j.runCfg())
	tb.AddRow("EEP", eep.MBPerEpoch(), eep.BytesPerEpoch/base, eep.TestAcc)

	j.AddNote("volume grows ≈%.1fx from k=%d to k=%d; EEP lands at %.2fx",
		s.Y[len(s.Y)-1]/s.Y[0], ks[0], ks[len(ks)-1], eep.BytesPerEpoch/base)
}

// ablWeights ablates the L-SALSA connection-strength weighting against
// uniform weights (Sec. 3.3's weight-determining choice).
func ablWeights(j *job) {
	tb := j.table("ablation: L-SALSA vs uniform group weights",
		"dataset", "weights", "test acc", "acc delta")

	for _, ds := range benchDatasets(j.Options) {
		part := j.part(ds)
		var salsaAcc float64
		for _, uniform := range []bool{false, true} {
			plan := core.PlanConfig{
				Grouping:       core.GroupingConfig{Seed: j.Seed},
				UniformWeights: uniform,
			}
			res := j.train(ds, part, j.Partitions, dist.Semantic(plan), j.runCfg())
			name := "l-salsa"
			delta := 0.0
			if uniform {
				name = "uniform"
				delta = res.TestAcc - salsaAcc
			} else {
				salsaAcc = res.TestAcc
			}
			tb.AddRow(ds.Name, name, res.TestAcc, delta)
		}
	}
}

// ablSeeds measures run-to-run variance: vanilla and semantic accuracy over
// several seeds, reported as mean ± std — the error bars the paper omits.
func ablSeeds(j *job) {
	nSeeds := 5
	if j.Quick {
		nSeeds = 3
	}
	tb := j.table("ablation: seed variance",
		"dataset", "method", "acc mean", "acc std", "runs")

	for _, ds := range benchDatasets(j.Options) {
		part := j.part(ds)
		for _, semantic := range []bool{false, true} {
			var accs []float64
			for s := 0; s < nSeeds; s++ {
				var cfg dist.Config
				if semantic {
					cfg = dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: j.Seed + int64(s)}})
				} else {
					cfg = dist.Vanilla()
				}
				rc := j.runCfg()
				rc.Seed = j.Seed + int64(s)
				accs = append(accs, j.train(ds, part, j.Partitions, cfg, rc).TestAcc)
			}
			sum := stats.Summarize(accs)
			name := "vanilla"
			if semantic {
				name = "semantic"
			}
			tb.AddRow(ds.Name, name, sum.Mean, sum.Std, nSeeds)
			if semantic {
				j.AddNote("%s: semantic %.4f±%.4f over %d seeds", ds.Name, sum.Mean, sum.Std, nSeeds)
			}
		}
	}
}

// ablDepth sweeps model depth: each extra GCN layer adds a forward and a
// backward halo exchange per epoch, so the aggregate-wall grows linearly
// with depth for vanilla while SC-GNN's compressed exchange keeps the
// absolute volume small at any depth.
func ablDepth(j *job) {
	ds := benchDatasets(j.Options)[len(benchDatasets(j.Options))-1] // the sparse dataset trains deepest
	part := j.part(ds)
	tb := j.table("ablation: model depth",
		"layers", "method", "comm MB/epoch", "test acc")
	fig := j.figure("volume vs depth", "layers", "MB/epoch")
	sv := fig.AddSeries("vanilla")
	ss := fig.AddSeries("semantic")

	depths := []int{2, 3, 4}
	if j.Quick {
		depths = []int{2, 3}
	}
	for _, L := range depths {
		rc := j.runCfg()
		rc.Layers = L
		van := j.train(ds, part, j.Partitions, dist.Vanilla(), rc)
		sem := j.train(ds, part, j.Partitions, semanticCfg(j.Seed), rc)
		tb.AddRow(L, "vanilla", van.MBPerEpoch(), van.TestAcc)
		tb.AddRow(L, "semantic", sem.MBPerEpoch(), sem.TestAcc)
		sv.Add(float64(L), van.MBPerEpoch())
		ss.Add(float64(L), sem.MBPerEpoch())
	}
	j.AddNote("vanilla volume grows %.2fx from %d to %d layers; semantic stays at %.4f–%.4f MB",
		sv.Y[len(sv.Y)-1]/sv.Y[0], depths[0], depths[len(depths)-1], ss.Y[0], ss.Y[len(ss.Y)-1])
}

// ablFabric sweeps the interconnect profile: the slower the fabric, the
// larger semantic compression's epoch-time advantage (on NVLink the
// aggregate-wall barely exists; on commodity Ethernet it dominates).
func ablFabric(j *job) {
	ds := benchDatasets(j.Options)[0]
	part := j.part(ds)
	tb := j.table("ablation: interconnect profile",
		"fabric", "vanilla ms", "semantic ms", "speedup")

	for _, name := range []string{"nvlink", "pcie", "ethernet"} {
		cost := simnet.Profiles()[name]
		rc := j.runCfg()
		rc.Cost = &cost
		van := j.train(ds, part, j.Partitions, dist.Vanilla(), rc)
		sem := j.train(ds, part, j.Partitions, semanticCfg(j.Seed), rc)
		speedup := van.EpochTimeModeled / sem.EpochTimeModeled
		tb.AddRow(name, van.EpochTimeMs(), sem.EpochTimeMs(), speedup)
		j.AddNote("%s: semantic %.1fx faster per epoch", name, speedup)
	}
}

// ablCodec compares the codec refinements on one dataset: fixed 4-bit
// quantization, variance-adaptive quantization, and error-feedback
// quantization — alone and composed with semantic compression. The paper's
// quantization baseline (AdaQP) motivates the adaptive variant; error
// feedback is the standard fix for low-bit bias.
func ablCodec(j *job) {
	ds := benchDatasets(j.Options)[0]
	part := j.part(ds)
	tb := j.table("ablation: codec refinements",
		"method", "comm MB/epoch", "test acc")

	cfgs := laneList(j.Seed,
		"vanilla", "quant4", "quant4+adaptive", "quant4+ef",
		"semantic+quant4", "semantic+quant+ef")
	for _, cfg := range cfgs {
		res := j.train(ds, part, j.Partitions, cfg, j.runCfg())
		tb.AddRow(res.Method, res.MBPerEpoch(), res.TestAcc)
	}
}

// ablCurves records validation-accuracy convergence curves per method: the
// semantic aggregate tracks vanilla's trajectory closely, while delayed
// transmission converges visibly slower (its gradients are stale for
// period−1 of every period epochs) — the dynamics behind Table 1's
// accuracy column.
func ablCurves(j *job) {
	ds := benchDatasets(j.Options)[len(benchDatasets(j.Options))-1] // sparse dataset: hardest
	part := j.part(ds)
	fig := j.figure("validation accuracy vs epoch", "epoch", "val acc")

	cfgs := []dist.Config{
		dist.Vanilla(),
		semanticCfg(j.Seed),
		dist.Delay(4),
		dist.Sampling(0.1, j.Seed),
	}
	rc := j.runCfg()
	if !j.Quick && rc.Epochs < 60 {
		rc.Epochs = 60
	}
	type curve struct {
		name  string
		final float64
	}
	var curves []curve
	for _, cfg := range cfgs {
		res := j.train(ds, part, j.Partitions, cfg, rc)
		s := fig.AddSeries(res.Method)
		for _, e := range res.Epochs {
			s.Add(float64(e.Epoch), e.ValAcc)
		}
		curves = append(curves, curve{res.Method, res.TestAcc})
	}
	for _, c := range curves {
		j.AddNote("%s final test accuracy %.4f", c.name, c.final)
	}
}
