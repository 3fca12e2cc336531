package exp

import (
	"scgnn/internal/dist"
	"scgnn/internal/partition"
)

// table1 reproduces the paper's Table 1: communication volume, modeled epoch
// time, and test accuracy for every dataset × method × partition count.
// Per the Sec. 5.2 protocol, the three baselines are traffic-matched to the
// semantic run (rates/bits/periods derived from the measured volume ratio,
// saturating at their physical limits), so the epoch-time column isolates
// per-method processing efficiency. The sampling rate is fitted against
// vanilla's first epoch: a sampled lane reships layer 0's forward round every
// epoch, which vanilla does only in its first.
func table1(j *job) {
	parts := []int{2, 4, 8}
	if j.Quick {
		parts = []int{2, 4}
	}
	tb := j.table("Table 1: comm volume / epoch time / accuracy",
		"dataset", "method", "parts", "comm MB/epoch", "epoch ms", "test acc")

	for _, ds := range benchDatasets(j.Options) {
		for _, np := range parts {
			part := j.cut(ds, np, partition.NodeCut)

			van := j.train(ds, part, np, dist.Vanilla(), j.runCfg())
			sem := j.train(ds, part, np, semanticCfg(j.Seed), j.runCfg())
			_, quantCfg, delayCfg := dist.MatchedBaselines(sem.BytesPerEpoch/van.BytesPerEpoch, j.Seed)
			sampCfg, _, _ := dist.MatchedBaselines(sem.BytesPerEpoch/float64(van.Epochs[0].Bytes), j.Seed)
			samp := j.train(ds, part, np, sampCfg, j.runCfg())
			quant := j.train(ds, part, np, quantCfg, j.runCfg())
			delay := j.train(ds, part, np, delayCfg, j.runCfg())

			for _, res := range []*dist.Result{van, delay, quant, samp, sem} {
				tb.AddRow(ds.Name, res.Method, np, res.MBPerEpoch(), res.EpochTimeMs(), res.TestAcc)
			}
			if sem.EpochTimeModeled < van.EpochTimeModeled &&
				sem.EpochTimeModeled < samp.EpochTimeModeled &&
				sem.EpochTimeModeled < quant.EpochTimeModeled &&
				sem.EpochTimeModeled < delay.EpochTimeModeled {
				j.AddNote("%s/%dp: semantic has the lowest epoch time (%.2fms)",
					ds.Name, np, sem.EpochTimeMs())
			} else {
				j.AddNote("%s/%dp: semantic epoch time %.2fms (vanilla %.2f, samp %.2f, quant %.2f, delay %.2f)",
					ds.Name, np, sem.EpochTimeMs(), van.EpochTimeMs(), samp.EpochTimeMs(),
					quant.EpochTimeMs(), delay.EpochTimeMs())
			}
		}
	}
}
