package dist

import (
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"scgnn/internal/exchange"
	"scgnn/internal/pool"
	"scgnn/internal/sched"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// driverLanes is every Fig. 12(b) combination, plus nsampling and
// semantic+nsampling (the one sampling coin at 0.3, whose 1/r rescale is not
// exact in floating point), fixed-rate and under an active anneal
// (EpochsPerLevel 1 walks the whole ladder in a six-epoch run).
func driverLanes(seed int64) map[string]Config {
	lanes := exchange.MethodMatrix(seed)
	plan := lanes["semantic"].Plan
	lanes["nsampling"] = Config{SampleRate: 0.3, Seed: seed}
	lanes["semantic+nsampling"] = Config{Semantic: true, Plan: plan, SampleRate: 0.3, Seed: seed}
	for name, cfg := range maps.Clone(lanes) {
		cfg.Sched = sched.Policy{Enabled: true, EpochsPerLevel: 1}
		lanes["sched("+name+")"] = cfg
	}
	return lanes
}

// TestEngineEqualsCluster: the engine is a cluster, so what is left to pin is
// its wrapper. For every lane, at GOMAXPROCS 1, 2 and 8, the engine's
// aggregates, schedules, dirty sets and per-epoch snapshot — traffic and
// processing counters — equal those of a cluster at the host's GOMAXPROCS
// reset by hand, exactly — through six epochs, a mid-run Repartition and a
// closing StartEvalEpoch pass, which between them cross fresh, replayed and
// bypassed delay slots. The cluster is held to the definitional oracle in
// internal/worker. It rides `make race` ten times over: the frame slots are
// written in one fork-join and read in the next, with only the join between
// them.
func TestEngineEqualsCluster(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	next := movedPart(t, d.NumNodes(), part, nparts)
	h := randMat(d.NumNodes(), 5, 61)
	g := randMat(d.NumNodes(), 5, 62)

	host := runtime.GOMAXPROCS(0)
	for name, cfg := range driverLanes(9) {
		t.Run(name, func(t *testing.T) {
			cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			workers := []int{1, 2, 8}
			engs := make([]*Engine, len(workers))
			for i, w := range workers {
				pool.SetProcs(t, w)
				engs[i] = NewEngine(d.Graph, part, nparts, cfg)
			}
			for epoch := 0; epoch <= 6; epoch++ {
				pool.SetProcs(t, host)
				if epoch == 3 {
					want, err := cl.Repartition(next)
					if err != nil {
						t.Fatal(err)
					}
					for i, eng := range engs {
						pool.SetProcs(t, workers[i])
						got, err := eng.c.Repartition(next)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("procs %d: dirty pairs %v, cluster %v", workers[i], got, want)
						}
					}
				}
				eval := epoch == 6
				pool.SetProcs(t, host)
				cl.ResetTraffic()
				if eval {
					cl.StartEvalEpoch(epoch)
				} else {
					cl.StartEpoch(epoch)
				}
				wantF, wantB := cl.Forward(h), cl.Backward(g)
				wantSnap, wantLv := cl.CaptureEpoch(), cl.ScheduleLevels()
				for i, eng := range engs {
					pool.SetProcs(t, workers[i])
					if eval {
						eng.StartEvalEpoch(epoch)
					} else {
						eng.StartEpoch(epoch)
					}
					if lv := eng.c.ScheduleLevels(); !slices.Equal(lv, wantLv) {
						t.Fatalf("epoch %d procs %d: rungs %v, cluster %v", epoch, workers[i], lv, wantLv)
					}
					bitEqual(t, name, epoch, "forward", wantF, eng.Forward(h))
					bitEqual(t, name, epoch, "backward", wantB, eng.Backward(g))
					if snap := eng.CaptureEpoch(); snap != wantSnap {
						t.Fatalf("epoch %d procs %d: snapshot %+v, cluster %+v", epoch, workers[i], snap, wantSnap)
					}
				}
			}
		})
	}
}

// TestEngineAggregateIntoErrors: a mis-shaped h or dst is an error before
// anything runs and leaves the engine healthy, on one partition (the caller's
// goroutine) and on three (one goroutine each); Forward and Backward, which
// have no error result, panic on the caller's goroutine. (An engine whose
// round failed keeps returning that first error: internal/worker's
// TestEnginePoisonedByCorruptFrame, where the frame can be corrupted.)
func TestEngineAggregateIntoErrors(t *testing.T) {
	d, part := smallSetup(t)
	n := d.NumNodes()
	for _, nparts := range []int{1, 3} {
		eng := NewEngine(d.Graph, partsOf(part, nparts), nparts, Config{})
		eng.StartEpoch(0)
		for _, tc := range []struct {
			name   string
			h, dst *tensor.Matrix
		}{
			{"short h", tensor.New(n-1, 4), tensor.New(n, 4)},
			{"long h", tensor.New(n+1, 4), tensor.New(n+1, 4)},
			{"short dst", tensor.New(n, 4), tensor.New(n-1, 4)},
			{"cols differ", tensor.New(n, 4), tensor.New(n, 5)},
		} {
			if err := eng.AggregateInto(tc.dst, tc.h, false); err == nil {
				t.Fatalf("nparts %d, %s: AggregateInto accepted the shapes", nparts, tc.name)
			}
		}
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("nparts %d: %s did not panic", nparts, what)
				}
			}()
			f()
		}
		mustPanic("Forward on a short matrix", func() { eng.Forward(tensor.New(n-1, 4)) })
		mustPanic("Backward on a short matrix", func() { eng.Backward(tensor.New(n-1, 4)) })

		// Not poisoned by the rejections: a well-shaped round runs.
		h5, out5 := randMat(n, 5, 63), tensor.New(n, 5)
		if err := eng.AggregateInto(out5, h5, false); err != nil {
			t.Fatalf("nparts %d: engine poisoned by a rejected round: %v", nparts, err)
		}
	}
}

// TestEngineSteadyStateAllocs puts the engine's epoch — the per-epoch reset and
// a forward and a backward round — behind the gate the cluster's round is
// behind (worker.TestClusterSteadyStateAllocs): after warm-up it allocates
// nothing, on the caller's goroutine and fanned out, where every round starts
// its goroutines afresh; a delay lane covers fresh and replay rounds.
func TestEngineSteadyStateAllocs(t *testing.T) {
	d, part := smallSetup(t)
	h, out := randMat(d.NumNodes(), 8, 66), tensor.New(d.NumNodes(), 8)
	for _, cfg := range []Config{{}, {QuantBits: 8, ErrorFeedback: true}, {DelayPeriod: 2}} {
		for _, nparts := range []int{1, 3} {
			eng := NewEngine(d.Graph, partsOf(part, nparts), nparts, cfg)
			epoch := 0
			run := func() {
				eng.StartEpoch(epoch)
				epoch++
				for _, backward := range []bool{false, true} {
					if err := eng.AggregateInto(out, h, backward); err != nil {
						t.Fatal(err)
					}
				}
			}
			run()
			run()
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Fatalf("%s nparts %d: steady-state epoch allocates %v times", cfg.MethodName(), nparts, allocs)
			}
		}
	}
}

// TestEngineNoGoroutineLeak: the engine has no Close because it has nothing
// to close — every goroutine a round starts has exited when the round
// returns, on the plain, the delayed (fresh and replay) and the failing path.
func TestEngineNoGoroutineLeak(t *testing.T) {
	d, part := smallSetup(t)
	h := randMat(d.NumNodes(), 4, 65)
	before := runtime.NumGoroutine()
	for _, cfg := range []Config{{}, {DelayPeriod: 2}} {
		eng := NewEngine(d.Graph, part, 3, cfg)
		for epoch := 0; epoch < 4; epoch++ {
			eng.StartEpoch(epoch)
			eng.Forward(h)
			eng.Backward(h)
		}
		if err := eng.AggregateInto(tensor.New(1, 1), h, false); err == nil {
			t.Fatal("mis-shaped round accepted")
		}
	}
	// A goroutine that has passed its WaitGroup.Done may not have been reaped
	// yet; wait for the count, bounded.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the rounds, %d after", before, after)
	}
}

// partsOf is part on nparts partitions: part itself, or every node on
// partition 0 when nparts is 1 — a cluster whose round runs on the caller's
// goroutine.
func partsOf(part []int, nparts int) []int {
	if nparts == 1 {
		return make([]int, len(part))
	}
	return part
}
