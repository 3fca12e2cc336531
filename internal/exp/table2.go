package exp

import (
	"scgnn/internal/dist"
	"scgnn/internal/partition"
)

// table2 reproduces the paper's Table 2: how the three partition families
// interact with semantic compression. For each dataset and partitioner the
// harness reports the vanilla communication volume, the SC-GNN volume, and
// the SC-GNN training accuracy. The paper's conclusion: node-cut composes
// best (it is "algorithmically isomorphic" to the approximating
// compression); random-cut inflates vanilla volume severely.
func table2(j *job) {
	tb := j.table("Table 2: partitioner compatibility",
		"dataset", "partitioner", "vanilla MB", "scgnn MB", "scgnn acc", "cut edges", "replication")

	volCfg := j.runCfg()
	volCfg.Epochs = 4

	for _, ds := range benchDatasets(j.Options) {
		var vanMB, semMB []float64 // per partition.Methods entry
		for _, m := range partition.Methods {
			part := j.cut(ds, j.Partitions, m)
			st := partition.Evaluate(ds.Graph, part, j.Partitions)
			van := j.train(ds, part, j.Partitions, dist.Vanilla(), volCfg)
			sem := j.train(ds, part, j.Partitions, semanticCfg(j.Seed), j.runCfg())
			vanMB, semMB = append(vanMB, van.MBPerEpoch()), append(semMB, sem.MBPerEpoch())
			tb.AddRow(ds.Name, m.String(), van.MBPerEpoch(), sem.MBPerEpoch(), sem.TestAcc, st.CutEdges, st.Replication)
		}
		// Shape note: random should have the largest vanilla CV.
		if vanMB[2] > vanMB[0] && vanMB[2] > vanMB[1] {
			j.AddNote("%s: random-cut inflates vanilla CV %.1fx over node-cut",
				ds.Name, vanMB[2]/vanMB[0])
		}
		if semMB[0] <= semMB[1] && semMB[0] <= semMB[2] {
			j.AddNote("%s: node-cut yields the smallest SC-GNN CV", ds.Name)
		}
	}
}
