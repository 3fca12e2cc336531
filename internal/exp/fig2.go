package exp

import (
	"fmt"

	"scgnn/internal/dist"
	"scgnn/internal/graph"
	"scgnn/internal/trace"
)

// fig2b reproduces the volume/accuracy Pareto study of Fig. 2(b): the three
// decaying baselines are swept over their knobs (sample rate, bit width,
// delay period) on the dense dataset, and SC-GNN is placed as a single point.
// The paper's claim: the baselines share a common frontier; semantic
// compression breaks through it (far less volume at equal-or-better
// accuracy).
func fig2b(j *job) {
	ds := benchDatasets(j.Options)[0] // the dense (reddit-like) dataset
	part := j.part(ds)

	rates := []float64{0.1, 0.25, 0.5, 0.75}
	bits := []int{2, 4, 8, 16}
	delays := []int{2, 4, 8}
	if j.Quick {
		rates = []float64{0.25, 0.75}
		bits = []int{4, 8}
		delays = []int{2, 4}
	}

	van := j.train(ds, part, j.Partitions, dist.Vanilla(), j.runCfg())
	fig := j.figure("Fig. 2(b): volume vs accuracy Pareto", "norm volume", "test accuracy")
	tb := j.table("Fig. 2(b) points", "method", "knob", "norm volume", "test acc")

	record := func(s *trace.Series, name, knob string, res *dist.Result) {
		nv := res.BytesPerEpoch / van.BytesPerEpoch
		s.Add(nv, res.TestAcc)
		tb.AddRow(name, knob, nv, res.TestAcc)
	}

	sv := fig.AddSeries("vanilla")
	record(sv, "vanilla", "-", van)
	ss := fig.AddSeries("sampling")
	for i, rate := range rates {
		res := j.train(ds, part, j.Partitions, dist.Sampling(rate, j.Seed+int64(i)), j.runCfg())
		record(ss, "sampling", fmtF(rate), res)
	}
	sq := fig.AddSeries("quant")
	for _, b := range bits {
		res := j.train(ds, part, j.Partitions, dist.Quant(b), j.runCfg())
		record(sq, "quant", fmtI(b), res)
	}
	sd := fig.AddSeries("delay")
	for _, p := range delays {
		res := j.train(ds, part, j.Partitions, dist.Delay(p), j.runCfg())
		record(sd, "delay", fmtI(p), res)
	}
	so := fig.AddSeries("semantic")
	sem := j.train(ds, part, j.Partitions, semanticCfg(j.Seed), j.runCfg())
	record(so, "semantic", "EEP", sem)

	j.AddNote("semantic point: %.4f of vanilla volume at %.4f accuracy (vanilla %.4f)",
		sem.BytesPerEpoch/van.BytesPerEpoch, sem.TestAcc, van.TestAcc)
}

// fig2d reproduces the connection-type census of Fig. 2(d): across the
// datasets, M2M connections carry the overwhelming share of cross-partition
// edges (up to 99.98% in the paper), while pure O2O is rare.
func fig2d(j *job) {
	tb := j.table("Fig. 2(d): connection-type census",
		"dataset", "parts", "O2O conns", "O2M conns", "M2O conns", "M2M conns",
		"O2O edge%", "O2M edge%", "M2O edge%", "M2M edge%")

	for _, ds := range benchDatasets(j.Options) {
		c := graph.Census(graph.AllDBGs(ds.Graph, j.part(ds), j.Partitions))
		tb.AddRow(ds.Name, j.Partitions,
			c.Connections[graph.O2O], c.Connections[graph.O2M],
			c.Connections[graph.M2O], c.Connections[graph.M2M],
			100*c.EdgeShare(graph.O2O), 100*c.EdgeShare(graph.O2M),
			100*c.EdgeShare(graph.M2O), 100*c.EdgeShare(graph.M2M))
		j.AddNote("%s: M2M carries %.2f%% of cross-partition edges", ds.Name, 100*c.EdgeShare(graph.M2M))
	}
}

func fmtF(f float64) string { return fmt.Sprintf("%.2g", f) }

func fmtI(i int) string { return fmt.Sprintf("%d", i) }
