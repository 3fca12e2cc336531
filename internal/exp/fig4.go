package exp

import (
	"scgnn/internal/cluster"
	"scgnn/internal/core"
)

// fig4a reproduces the window-sliding cohesion study of Fig. 4(a): two
// adjacency rows with a fixed number of valid bits; one window slides across
// the other. The semantic similarity amplifies the high-overlap middle
// super-linearly; Jaccard grows only linearly.
func fig4a(j *job) {
	width, valid := 64, 16
	if j.Quick {
		width, valid = 32, 8
	}
	sem := core.SlidingCohesion(width, valid, core.SemanticSimilarity{})
	jac := core.SlidingCohesion(width, valid, core.JaccardSimilarity{})

	fig := j.figure("Fig. 4(a): window-sliding cohesion", "offset", "similarity")
	ss := fig.AddSeries("semantic")
	sj := fig.AddSeries("jaccard")
	sr := fig.AddSeries("amplification (sem/jac)")
	for i := range sem {
		ss.Add(float64(i), sem[i])
		sj.Add(float64(i), jac[i])
		if jac[i] > 0 {
			sr.Add(float64(i), sem[i]/jac[i])
		} else {
			sr.Add(float64(i), 0)
		}
	}
	j.AddNote("peak amplification %.1fx at full overlap (semantic %.2f vs jaccard %.2f)",
		sem[0]/jac[0], sem[0], jac[0])
}

// fig4b reproduces the group-number traversal of Fig. 4(b): the k-means
// inertia curve of the M2M source pool per dataset, with the elbow
// equilibrium point (EEP) marked. Small k → high inertia (miss-
// classification risk); large k → many costly compression units.
func fig4b(j *job) {
	fig := j.figure("Fig. 4(b): inertia vs group number", "k", "normalized inertia")
	tb := j.table("Fig. 4(b) EEP picks", "dataset", "pool size", "EEP k", "inertia@EEP")

	kmax := 20
	if j.Quick {
		kmax = 10
	}
	for _, ds := range benchDatasets(j.Options) {
		part := j.part(ds)
		dbg := largestDBG(ds, part, j.Partitions)
		if dbg == nil {
			j.AddNote("%s: no cross-partition edges", ds.Name)
			continue
		}
		gr := core.BuildGrouping(dbg, core.GroupingConfig{KMax: kmax, Seed: j.Seed})
		if len(gr.InertiaCurve) == 0 {
			j.AddNote("%s: M2M pool too small for a traversal (k=%d)", ds.Name, gr.K)
			continue
		}
		s := fig.AddSeries(ds.Name)
		mx := gr.InertiaCurve[0]
		if mx == 0 {
			mx = 1
		}
		for i, v := range gr.InertiaCurve {
			s.Add(float64(i+2), v/mx) // the EEP curve starts at k = 2
		}
		eepIdx := cluster.ElbowEEP(gr.InertiaCurve)
		tb.AddRow(ds.Name, len(gr.PoolSrc), gr.K, gr.InertiaCurve[eepIdx])
		j.AddNote("%s: EEP picks k=%d over a pool of %d M2M sources", ds.Name, gr.K, len(gr.PoolSrc))
	}
}
