package exp

import (
	"math/rand"

	"scgnn/internal/cluster"
	"scgnn/internal/core"
	"scgnn/internal/trace"
)

// fig6 reproduces the drop-dimensional grouping visualization of Fig. 6:
// the M2M source pool of each dataset is embedded under Jaccard and under
// semantic similarity, grouped by k-means, and projected to 2-D by PCA.
// The paper's claim — Jaccard creates "misclassified points and mixed
// clusters" while the semantic measure forms explicit groups — is
// quantified here by the silhouette coefficient of each clustering in its
// own embedding space (higher = crisper groups), alongside the PCA
// coordinates for the first few points of each cluster.
func fig6(j *job) {
	tb := j.table("Fig. 6: grouping crispness (silhouette, higher is better)",
		"dataset", "pool", "k", "jaccard silhouette", "semantic silhouette")

	for _, ds := range benchDatasets(j.Options) {
		part := j.part(ds)
		dbg := largestDBG(ds, part, j.Partitions)
		if dbg == nil {
			continue
		}
		var sil [2]float64
		var k int
		var pool int
		for i, sim := range []core.Similarity{core.JaccardSimilarity{}, core.SemanticSimilarity{}} {
			gr := core.BuildGrouping(dbg, core.GroupingConfig{Sim: sim, Seed: j.Seed})
			if gr.Embedding == nil || len(gr.PoolSrc) < 4 {
				break
			}
			pool = len(gr.PoolSrc)
			k = gr.K
			sil[i] = cluster.Silhouette(gr.Embedding, gr.Assign, gr.K)

			// Record the 2-D PCA projection of the semantic embedding.
			if sim.Name() == "semantic" {
				coords, eig := cluster.PCA(gr.Embedding, 2, rand.New(rand.NewSource(j.Seed)))
				fig := j.figure("Fig. 6 PCA coords: "+ds.Name, "PC1", "PC2")
				// One series per cluster, limited to keep text output sane.
				maxPts := 12
				members := map[int]int{}
				series := map[int]*trace.Series{}
				for i := 0; i < coords.Rows; i++ {
					c := gr.Assign[i]
					if members[c] >= maxPts {
						continue
					}
					members[c]++
					s, ok := series[c]
					if !ok && len(series) < 6 {
						s = fig.AddSeries("group-" + fmtI(c))
						series[c] = s
						ok = true
					}
					if ok {
						s.Add(coords.At(i, 0), coords.At(i, 1))
					}
				}
				if len(eig) > 1 && eig[0] > 0 {
					j.AddNote("%s: PC1/PC2 explain %.2f/%.2f of embedding variance",
						ds.Name, eig[0], eig[1])
				}
			}
		}
		if pool >= 4 {
			tb.AddRow(ds.Name, pool, k, sil[0], sil[1])
			j.AddNote("%s: semantic silhouette %.3f vs jaccard %.3f", ds.Name, sil[1], sil[0])
		}
	}
}
