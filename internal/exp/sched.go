package exp

import (
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/sched"
	"scgnn/internal/trace"
)

func init() {
	Registry["abl-sched"] = AblSched
}

// schedPolicy paces the annealing ladder to the run length: the rung floor
// spans the whole run, so half of training happens on the two sampled rungs
// and the second half on the (near-)base error-feedback rungs. Signal
// triggers still accelerate individual pairs past the floor.
func schedPolicy(epochs int) sched.Policy {
	per := epochs / 4
	if per < 1 {
		per = 1
	}
	return sched.Policy{Enabled: true, EpochsPerLevel: per}
}

// isoTol is the accuracy band within which two runs count as "iso accuracy".
func isoTol(acc float64) float64 { return 1e-3 * (1 + acc) }

// AblSched measures variable-rate communication scheduling (internal/sched)
// end to end. Per dataset it runs the full fixed-rate method matrix and
// picks the best fixed combination: among the combos within isoTol of the
// top test accuracy, the one with the fewest
// total bytes. It then reruns that combination's configuration with the
// scheduler enabled — same base method, but every partition pair anneals
// from 0.25-sampling+4-bit up to the base rate. The acceptance evidence
// recorded here: the scheduled run stays iso-accurate with the best fixed
// combo while communicating at least 25% fewer total bytes.
func AblSched(o Options) *Report {
	o = o.withDefaults()
	r := &Report{ID: "abl-sched"}
	tb := trace.NewTable("ablation: variable-rate scheduling",
		"dataset", "method", "total MB", "test acc")

	dss := []*datasets.Dataset{datasets.RedditSim10K(o.Seed), datasets.RedditSim100K(o.Seed)}
	if o.Quick {
		dss = []*datasets.Dataset{quickReddit(o.Seed)}
	}
	lanes := Lanes(o.Seed)
	for _, ds := range dss {
		part := partitionFor(ds, o.Partitions, o.Seed)

		type fixedRun struct {
			cfg dist.Config
			res *dist.Result
			mb  float64
		}
		var fixed []fixedRun
		maxAcc := 0.0
		for _, name := range matrixLaneNames(o.Seed) {
			cfg := lanes[name]
			res := dist.Run(ds, part, o.Partitions, cfg, runCfg(o))
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
		schedCfg.Sched = schedPolicy(o.Epochs)
		res := dist.Run(ds, part, o.Partitions, schedCfg, runCfg(o))
		mb := totalMB(res)
		tb.AddRow(ds.Name, res.Method, mb, res.TestAcc)
		r.AddNote("%s: best fixed %s: %.3f MB total at acc %.4f (top fixed acc %.4f)",
			ds.Name, best.res.Method, best.mb, best.res.TestAcc, maxAcc)
		r.AddNote("%s: %s: %.3f MB total (%.1f%% fewer bytes) at acc %.4f (Δ%+.4f vs best fixed)",
			ds.Name, res.Method, mb, 100*(1-mb/best.mb), res.TestAcc, res.TestAcc-best.res.TestAcc)
	}
	r.Tables = append(r.Tables, tb)
	return r
}

// totalMB is a run's total communicated volume in megabytes (the per-epoch
// mean times the epochs actually trained).
func totalMB(r *dist.Result) float64 {
	return r.BytesPerEpoch * float64(len(r.Epochs)) / 1e6
}
