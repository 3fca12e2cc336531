package exp

import (
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/sched"
)

// schedPolicy paces the annealing ladder to the run length: the rung floor
// spans the whole run, so half of training happens on the two sampled rungs
// and the second half on the (near-)base error-feedback rungs. The one signal,
// error feedback's corrections per unit, still accelerates individual pairs
// past the floor.
func schedPolicy(epochs int) sched.Policy {
	per := epochs / 4
	if per < 1 {
		per = 1
	}
	return sched.Policy{Enabled: true, EpochsPerLevel: per}
}

// isoTol is the accuracy band within which two runs count as "iso accuracy".
func isoTol(acc float64) float64 { return 1e-3 * (1 + acc) }

// ablSched measures variable-rate communication scheduling (internal/sched)
// end to end. Per dataset it runs the full fixed-rate method matrix and
// picks the best fixed combination: among the combos within isoTol of the
// top test accuracy, the one with the fewest
// total bytes. It then reruns that combination's configuration with the
// scheduler enabled — same base method, but every partition pair anneals
// from 0.25-sampling+4-bit up to the base rate. The acceptance evidence
// recorded here: the scheduled run stays iso-accurate with the best fixed
// combo while communicating at least 25% fewer total bytes.
func ablSched(j *job) {
	tb := j.table("ablation: variable-rate scheduling",
		"dataset", "method", "total MB", "test acc")

	dss := []*datasets.Dataset{datasets.RedditSim10K(j.Seed), datasets.RedditSim100K(j.Seed)}
	if j.Quick {
		dss = []*datasets.Dataset{quickReddit(j.Seed)}
	}
	lanes := Lanes(j.Seed)
	for _, ds := range dss {
		part := j.part(ds)

		type fixedRun struct {
			cfg dist.Config
			res *dist.Result
			mb  float64
		}
		var fixed []fixedRun
		maxAcc := 0.0
		for _, name := range matrixLaneNames(j.Seed) {
			cfg := lanes[name]
			res := j.train(ds, part, j.Partitions, cfg, j.runCfg())
			mb := totalMB(res)
			tb.AddRow(ds.Name, res.Method, mb, res.TestAcc)
			fixed = append(fixed, fixedRun{cfg, res, mb})
			if res.TestAcc > maxAcc {
				maxAcc = res.TestAcc
			}
		}
		var best fixedRun
		for _, f := range fixed {
			if f.res.TestAcc < maxAcc-isoTol(maxAcc) {
				continue
			}
			if best.res == nil || f.mb < best.mb {
				best = f
			}
		}

		schedCfg := best.cfg
		schedCfg.Sched = schedPolicy(j.Epochs)
		res := j.train(ds, part, j.Partitions, schedCfg, j.runCfg())
		mb := totalMB(res)
		tb.AddRow(ds.Name, res.Method, mb, res.TestAcc)
		j.AddNote("%s: best fixed %s: %.3f MB total at acc %.4f (top fixed acc %.4f)",
			ds.Name, best.res.Method, best.mb, best.res.TestAcc, maxAcc)
		j.AddNote("%s: %s: %.3f MB total (%+.1f%% bytes vs best fixed) at acc %.4f (Δ%+.4f vs best fixed)",
			ds.Name, res.Method, mb, 100*(mb/best.mb-1), res.TestAcc, res.TestAcc-best.res.TestAcc)
	}
}

// totalMB is a run's total communicated volume in megabytes (the per-epoch
// mean times the epochs actually trained).
func totalMB(r *dist.Result) float64 {
	return r.BytesPerEpoch * float64(len(r.Epochs)) / 1e6
}
