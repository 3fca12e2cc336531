package exp

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"scgnn/internal/core"
	"scgnn/internal/graph"
)

// ablReplan quantifies the incremental replanning subsystem: starting from
// the node-cut partition, it applies perturbations of growing strength (move
// a fraction of nodes to random partitions) and reports how many ordered
// pairs the PlanCache actually rebuilt versus reused — alongside a
// from-scratch BuildAllPlans equality check (byte-identical canonical
// marshal) proving reuse is free. The rebuild count is the cost model:
// planning wall is proportional to dirty pairs, so a repartition that moves
// 1% of nodes between two partitions pays a fraction of the from-scratch
// wall, while a no-op pays nothing.
func ablReplan(j *job) {
	tb := j.table("ablation: incremental replanning vs from-scratch",
		"dataset", "perturbation", "dirty pairs", "reused pairs", "plans", "identical")

	fracs := []float64{0, 0.01, 0.05, 0.25}
	if j.Quick {
		fracs = []float64{0, 0.05, 0.25}
	}
	npairs := j.Partitions * j.Partitions
	for _, ds := range benchDatasets(j.Options) {
		part := j.part(ds)
		cfg := core.PlanConfig{Grouping: core.GroupingConfig{Seed: j.Seed}}
		pc, err := core.NewPlanCache(ds.Graph, part, j.Partitions, cfg)
		j.check(err)
		rng := rand.New(rand.NewSource(j.Seed))
		cur := part
		var rebuilt, steps int
		for _, f := range fracs {
			next, err := perturbFraction(rng, cur, j.Partitions, f, ds.NumNodes())
			j.check(err)
			dirty, err := pc.Repartition(next)
			j.check(err)
			scratch, err := core.BuildAllPlans(ds.Graph, next, j.Partitions, cfg)
			j.check(err)
			identical := bytes.Equal(core.MarshalPlans(pc.Plans()), core.MarshalPlans(scratch))
			tb.AddRow(ds.Name, fmt.Sprintf("move %g%%", f*100),
				len(dirty), npairs-len(dirty), len(scratch), identical)
			rebuilt += len(dirty)
			steps++
			cur = next
		}
		j.AddNote("%s: %d of %d pair builds avoided across %d repartitions",
			ds.Name, steps*npairs-rebuilt, steps*npairs, steps)
	}
}

// perturbFraction moves ⌈f·n⌉ random nodes to random partitions (f=0 is a
// no-op), retrying the rare draw that empties a partition; a hundred such
// draws in a row are an error.
func perturbFraction(rng *rand.Rand, part []int, nparts int, f float64, n int) ([]int, error) {
	next := append([]int(nil), part...)
	moves := int(f * float64(n))
	if f > 0 && moves == 0 {
		moves = 1
	}
	for attempt := 0; attempt < 100; attempt++ {
		for m := 0; m < moves; m++ {
			next[rng.Intn(n)] = rng.Intn(nparts)
		}
		if graph.ValidatePartition(n, next, nparts) == nil {
			return next, nil
		}
	}
	return nil, errors.New("exp: could not perturb partition without emptying one")
}
