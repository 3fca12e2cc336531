package dist

import (
	"fmt"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/pool"
	"scgnn/internal/sched"
)

// schedBases are the base configurations the scheduled-engine tests anneal
// toward: a plain quantized exchange, the full SC-GNN composition, and a
// vanilla base (where the ladder still starts aggressive and relaxes to
// uncompressed).
func schedBases(seed int64) map[string]Config {
	policy := sched.Policy{Enabled: true}
	return map[string]Config{
		"sched(quant8)": {QuantBits: 8, Seed: seed, Sched: policy},
		"sched(semantic+quant+ef)": {Semantic: true,
			Plan:      core.PlanConfig{Grouping: core.GroupingConfig{Seed: seed}},
			QuantBits: 8, ErrorFeedback: true, Seed: seed, Sched: policy},
		"sched(vanilla)": {Seed: seed, Sched: policy},
	}
}

// TestScheduledWorkersInvariance: variable-rate scheduling must preserve the
// engine's GOMAXPROCS-invariance guarantee — at any GOMAXPROCS the per-epoch
// schedule decisions, outputs, and traffic snapshots are bit-identical. The
// per-pair signals feeding Decide (the EF counters) are accumulated on
// single-owner pair state, so the parallel schedule cannot perturb them.
func TestScheduledWorkersInvariance(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	h := randMat(d.NumNodes(), 5, 41)
	g := randMat(d.NumNodes(), 5, 42)

	for name, cfg := range schedBases(7) {
		var want []epochRecord
		for _, procs := range []int{1, 2, 8} {
			pool.SetProcs(t, procs)
			eng := NewEngine(d.Graph, part, nparts, cfg)
			for epoch := 0; epoch < 10; epoch++ {
				eng.StartEpoch(epoch)
				lv := eng.c.ScheduleLevels()
				got := epochRecord{eng.Forward(h), eng.Backward(g), eng.CaptureEpoch(), lv}
				if procs == 1 {
					want = append(want, got)
					continue
				}
				want[epoch].equal(t, fmt.Sprintf("%s procs=%d", name, procs), epoch, got)
			}
		}
	}
}

// TestScheduledAnnealsToBase: the epoch-driven floor must march every pair to
// the base rung, after which the scheduled engine's traffic is bit-identical
// to an unscheduled engine that always ran the base config — the terminal
// state of the anneal IS the base configuration, freshly reseeded.
func TestScheduledAnnealsToBase(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	h := randMat(d.NumNodes(), 5, 51)
	g := randMat(d.NumNodes(), 5, 52)

	cfg := Config{QuantBits: 8, ErrorFeedback: true, Seed: 11,
		Sched: sched.Policy{Enabled: true, EpochsPerLevel: 1, Stagger: -1}}
	eng := NewEngine(d.Graph, part, nparts, cfg)
	maxLevel := len(sched.Ladder(cfg.BaseSetting())) - 1

	prev := eng.c.ScheduleLevels()
	converged := -1
	for epoch := 0; epoch < 8; epoch++ {
		eng.StartEpoch(epoch)
		lv := eng.c.ScheduleLevels()
		all := true
		for i := range lv {
			if lv[i] < prev[i] {
				t.Fatalf("epoch %d: pair %d level dropped %d→%d", epoch, i, prev[i], lv[i])
			}
			if lv[i] != maxLevel {
				all = false
			}
		}
		prev = lv
		if all && converged < 0 {
			converged = epoch
		}
		eng.Forward(h)
		eng.Backward(g)
		eng.CaptureEpoch()
	}
	if converged < 0 {
		t.Fatalf("schedule never reached the base rung; levels %v", prev)
	}

	// From the convergence epoch on, a base-config engine whose pair streams
	// are equally fresh must produce the identical exchange. Reseeding the
	// base engine happens implicitly: its pairs were never sampled (base has
	// no sampler) and EF state resets on rung change, so compare an engine
	// built fresh and fast-forwarded through the post-convergence epochs.
	base := cfg
	base.Sched = sched.Policy{}
	be := NewEngine(d.Graph, part, nparts, base)
	se := NewEngine(d.Graph, part, nparts, cfg)
	for epoch := 0; epoch < converged; epoch++ {
		se.StartEpoch(epoch)
		se.Forward(h)
		se.Backward(g)
	}
	// One more boundary so the scheduled engine's changed pairs reseed at the
	// convergence epoch — from here the two engines' streams line up.
	se.StartEpoch(converged)
	be.StartEpoch(converged)
	fs, fb := se.Forward(h), be.Forward(h)
	bitEqual(t, "converged", converged, "forward", fb, fs)
	bitEqual(t, "converged", converged, "backward", be.Backward(g), se.Backward(g))
	ss, bs := se.CaptureEpoch(), be.CaptureEpoch()
	if ss != bs {
		t.Fatalf("converged snapshots differ:\nsched %+v\nbase  %+v", ss, bs)
	}
}

// TestScheduledEarlyEpochsCheaper: the point of the anneal — rung-0 epochs
// must communicate strictly fewer bytes than the base configuration.
func TestScheduledEarlyEpochsCheaper(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	h := randMat(d.NumNodes(), 5, 61)

	base := Config{QuantBits: 8, Seed: 13}
	schedCfg := base
	schedCfg.Sched = sched.Policy{Enabled: true, EpochsPerLevel: 4}
	be := NewEngine(d.Graph, part, nparts, base)
	se := NewEngine(d.Graph, part, nparts, schedCfg)
	be.StartEpoch(0)
	se.StartEpoch(0)
	be.Forward(h)
	se.Forward(h)
	bb, sb := be.CaptureEpoch().TotalBytes, se.CaptureEpoch().TotalBytes
	if sb >= bb {
		t.Fatalf("scheduled epoch 0 bytes %d, want < base %d", sb, bb)
	}
}

// TestScheduledRepartition: a mid-anneal repartition reseeds dirty pairs'
// compression but must not disturb the schedule itself, and the
// GOMAXPROCS-invariance guarantee must hold straight through the boundary
// change.
func TestScheduledRepartition(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	h := randMat(d.NumNodes(), 5, 71)
	g := randMat(d.NumNodes(), 5, 72)

	cfg := Config{Semantic: true,
		Plan:      core.PlanConfig{Grouping: core.GroupingConfig{Seed: 5}},
		QuantBits: 8, ErrorFeedback: true, Seed: 5,
		Sched: sched.Policy{Enabled: true}}
	part2 := append([]int(nil), part...)
	moved := 0
	for u := 0; u < len(part2) && moved < 12; u += 10 {
		part2[u] = (part2[u] + 1) % nparts
		moved++
	}

	var want []epochRecord
	var wantDirty []int
	for _, procs := range []int{1, 8} {
		pool.SetProcs(t, procs)
		eng := NewEngine(d.Graph, part, nparts, cfg)
		for epoch := 0; epoch < 8; epoch++ {
			if epoch == 3 {
				before := eng.c.ScheduleLevels()
				dirty, err := eng.c.Repartition(part2)
				if err != nil {
					t.Fatal(err)
				}
				if procs == 1 {
					wantDirty = dirty
				} else if len(dirty) != len(wantDirty) {
					t.Fatalf("dirty sets differ: %v vs %v", wantDirty, dirty)
				}
				after := eng.c.ScheduleLevels()
				for i := range before {
					if before[i] != after[i] {
						t.Fatalf("repartition changed pair %d level %d→%d", i, before[i], after[i])
					}
				}
			}
			eng.StartEpoch(epoch)
			got := epochRecord{eng.Forward(h), eng.Backward(g), eng.CaptureEpoch(), nil}
			if procs == 1 {
				want = append(want, got)
				continue
			}
			want[epoch].equal(t, "sched-repart", epoch, got)
		}
	}
}

// TestScheduledMethodName pins the "sched(base)" rendering.
func TestScheduledMethodName(t *testing.T) {
	cfg := Config{Semantic: true, QuantBits: 8, Sched: sched.Policy{Enabled: true}}
	if got := cfg.MethodName(); got != "sched(semantic+quant)" {
		t.Fatalf("MethodName = %q", got)
	}
	if got := (Config{Sched: sched.Policy{Enabled: true}}).MethodName(); got != "sched(vanilla)" {
		t.Fatalf("vanilla MethodName = %q", got)
	}
}
