package exp

import (
	"sort"

	"scgnn/internal/core"
	"scgnn/internal/dist"
)

// fig9 reproduces the normalized traffic-volume comparison of Fig. 9: the
// per-epoch communication of sampling, quantization, delay, and semantic
// compression, normalized to vanilla, at each baseline's conventional
// operating point (sampling rate 0.1 per BNS-GCN, 8-bit quantization, delay
// period 4). The paper's headline: SC-GNN's compression rate is 40.8× the
// SOTA average, strongest on the dense dataset. A second table splits each
// run's volume into its first epoch and the steady state after it: layer 0
// aggregates the fixed features first, so on an exchange without coins or
// residuals the model keeps that round's result from epoch 0 on
// (gnn.RoundReuser), and the first epoch is what a program that recomputes
// it ships every epoch.
func fig9(j *job) {
	tb := j.table("Fig. 9: normalized traffic volume (vanilla = 1)",
		"dataset", "sampling", "quant", "delay", "semantic", "ours vs best baseline")
	split := j.table("Fig. 9: per-epoch volume, first epoch and steady state (MB)",
		"dataset", "method", "first epoch", "steady state", "mean")

	// Volume is static per epoch after the first (delay alternates), so
	// eight epochs measure it; the means include epoch 0, which the second
	// table reports apart.
	cfg := j.runCfg()
	cfg.Epochs = 8

	for _, ds := range benchDatasets(j.Options) {
		part := j.part(ds)
		van := j.train(ds, part, j.Partitions, dist.Vanilla(), cfg)
		samp := j.train(ds, part, j.Partitions, dist.Sampling(0.1, j.Seed), cfg)
		quant := j.train(ds, part, j.Partitions, dist.Quant(8), cfg)
		delay := j.train(ds, part, j.Partitions, dist.Delay(4), cfg)
		sem := j.train(ds, part, j.Partitions, semanticCfg(j.Seed), cfg)

		norm := func(res *dist.Result) float64 { return res.BytesPerEpoch / van.BytesPerEpoch }
		best := norm(samp)
		for _, v := range []float64{norm(quant), norm(delay)} {
			if v < best {
				best = v
			}
		}
		ratio := best / norm(sem)
		tb.AddRow(ds.Name, norm(samp), norm(quant), norm(delay), norm(sem), ratio)
		j.AddNote("%s: semantic = %.4f of vanilla; %.1fx below the best baseline",
			ds.Name, norm(sem), ratio)
		for _, res := range []*dist.Result{van, samp, quant, delay, sem} {
			first, steady := firstAndSteady(res)
			split.AddRow(ds.Name, res.Method, first, steady, res.MBPerEpoch())
		}
	}
}

// firstAndSteady splits a run's volume into its first epoch and the mean of
// the epochs after it, in MB.
func firstAndSteady(res *dist.Result) (first, steady float64) {
	for _, e := range res.Epochs[1:] {
		steady += float64(e.Bytes)
	}
	return float64(res.Epochs[0].Bytes) / 1e6, steady / 1e6 / float64(len(res.Epochs)-1)
}

// fig10 reproduces the group-size study of Fig. 10: the distribution of
// per-group edge counts and their means — the "141:1"-style compression
// units. Density drives group size: the dense dataset forms far larger
// groups than the sparse one.
func fig10(j *job) {
	tb := j.table("Fig. 10: group sizes (edges per group)",
		"dataset", "groups", "mean size", "max size", "p50", "p90", "o2o residual")

	for _, ds := range benchDatasets(j.Options) {
		part := j.part(ds)
		plans, err := core.BuildAllPlans(ds.Graph, part, j.Partitions,
			core.PlanConfig{Grouping: core.GroupingConfig{Seed: j.Seed}})
		j.check(err)
		var sizes []int
		var o2o, edges int
		for _, p := range plans {
			st := p.Grouping.Stats()
			sizes = append(sizes, st.GroupSizes...)
			o2o += st.NumO2O
			edges += st.EdgesCompressed
		}
		if len(sizes) == 0 {
			continue
		}
		sort.Ints(sizes)
		mean := float64(edges) / float64(len(sizes))
		tb.AddRow(ds.Name, len(sizes), mean, sizes[len(sizes)-1],
			sizes[len(sizes)/2], sizes[len(sizes)*9/10], o2o)
		j.AddNote("%s: mean group size %.1f:1 over %d groups", ds.Name, mean, len(sizes))
	}
}
