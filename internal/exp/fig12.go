package exp

import (
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
)

// fig12a reproduces the graph-connectivity study of Fig. 12(a): the
// compression ratio of semantic compression as a function of the graph's
// average degree, on otherwise-identical synthetic graphs. Denser graphs
// form larger full-map groups, so the ratio improves monotonically with
// degree (Reddit compresses below 0.5% in the paper because d̄ = 489).
func fig12a(j *job) {
	degrees := []float64{3, 6, 12, 24, 48, 96}
	if j.Quick {
		degrees = []float64{4, 16, 48}
	}
	fig := j.figure("Fig. 12(a): compression vs average degree", "avg degree", "semantic/vanilla volume")
	s := fig.AddSeries("semantic")
	tb := j.table("Fig. 12(a) points", "avg degree", "vanilla MB", "semantic MB", "ratio")

	cfg := j.runCfg()
	cfg.Epochs = 4 // volume is static; a few epochs measure it exactly
	for i, ds := range datasets.DegreeSweep(degrees, j.Seed) {
		part := j.part(ds)
		van := j.train(ds, part, j.Partitions, dist.Vanilla(), cfg)
		sem := j.train(ds, part, j.Partitions, semanticCfg(j.Seed), cfg)
		ratio := sem.BytesPerEpoch / van.BytesPerEpoch
		s.Add(ds.Graph.AvgDegree(), ratio)
		tb.AddRow(degrees[i], van.MBPerEpoch(), sem.MBPerEpoch(), ratio)
	}
	j.AddNote("volume ratio at d=%.0f is %.4f vs %.4f at d=%.0f",
		degrees[len(degrees)-1], s.Y[len(s.Y)-1], s.Y[0], degrees[0])
}

// fig12b reproduces the cross-compatibility study of Fig. 12(b): every
// pairing of the four traffic reducers is run jointly; the paper concludes
// semantic compression composes best with the others, while sampling is the
// most exclusive partner.
func fig12b(j *job) {
	ds := benchDatasets(j.Options)[0]
	part := j.part(ds)
	tb := j.table("Fig. 12(b): method compatibility",
		"combo", "comm MB/epoch", "norm volume", "test acc")

	combos := laneList(j.Seed,
		"vanilla",
		"semantic", // ours
		"semantic+quant",
		"semantic+delay",
		"semantic+sampling",
		"sampling+quant8",
		"sampling+delay2",
		"quant8+delay2")

	var vanBytes float64
	for i, cfg := range combos {
		res := j.train(ds, part, j.Partitions, cfg, j.runCfg())
		if i == 0 {
			vanBytes = res.BytesPerEpoch
		}
		tb.AddRow(res.Method, res.MBPerEpoch(), res.BytesPerEpoch/vanBytes, res.TestAcc)
		if cfg.Semantic && cfg.QuantBits > 0 {
			j.AddNote("semantic+quant reaches %.5f of vanilla volume at %.4f accuracy",
				res.BytesPerEpoch/vanBytes, res.TestAcc)
		}
	}
}
