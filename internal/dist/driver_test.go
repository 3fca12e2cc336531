package dist

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"scgnn/internal/exchange"
	"scgnn/internal/sched"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// driverLanes is every Fig. 12(b) combination, fixed-rate and under an active
// anneal (EpochsPerLevel 1 walks the whole ladder in a six-epoch run).
func driverLanes(seed int64) map[string]Config {
	lanes := exchange.MethodMatrix(seed)
	for name, cfg := range exchange.MethodMatrix(seed) {
		cfg.Sched = sched.Policy{Enabled: true, EpochsPerLevel: 1}
		lanes["sched("+name+")"] = cfg
	}
	return lanes
}

// TestEngineEqualsCluster: the engine is a cluster, so what is left to pin is
// its wrapper and the Workers cap. For every lane, at Workers 1 (caller's
// goroutine), nparts (one task per goroutine) and 64 (capped to nparts), the
// engine's aggregates, schedules, dirty sets and per-epoch snapshot —
// traffic and processing counters — equal those of a default-width cluster
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

	for name, cfg := range driverLanes(9) {
		t.Run(name, func(t *testing.T) {
			cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			workers := []int{1, nparts, 64}
			engs := make([]*Engine, len(workers))
			for i, w := range workers {
				ec := cfg
				ec.Workers = w
				engs[i] = NewEngine(d.Graph, part, nparts, ec)
			}
			for epoch := 0; epoch <= 6; epoch++ {
				if epoch == 3 {
					want, err := cl.Repartition(next)
					if err != nil {
						t.Fatal(err)
					}
					for i, eng := range engs {
						got, err := eng.c.Repartition(next)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("workers %d: dirty pairs %v, cluster %v", workers[i], got, want)
						}
					}
				}
				eval := epoch == 6
				cl.ResetTraffic()
				if eval {
					cl.StartEvalEpoch(epoch)
				} else {
					cl.StartEpoch(epoch)
				}
				wantF, wantB := cl.Forward(h), cl.Backward(g)
				wantSnap, wantLv := cl.CaptureEpoch(), cl.ScheduleLevels()
				for i, eng := range engs {
					if eval {
						eng.StartEvalEpoch(epoch)
					} else {
						eng.StartEpoch(epoch)
					}
					if lv := eng.c.ScheduleLevels(); !slices.Equal(lv, wantLv) {
						t.Fatalf("epoch %d workers %d: rungs %v, cluster %v", epoch, workers[i], lv, wantLv)
					}
					bitEqual(t, name, epoch, "forward", wantF, eng.Forward(h))
					bitEqual(t, name, epoch, "backward", wantB, eng.Backward(g))
					if snap := eng.CaptureEpoch(); snap != wantSnap {
						t.Fatalf("epoch %d workers %d: snapshot %+v, cluster %+v", epoch, workers[i], snap, wantSnap)
					}
				}
			}
		})
	}
}

// TestEngineAggregateIntoErrors: a mis-shaped h or dst is an error before
// anything runs and leaves the engine healthy; Forward and Backward, which
// have no error result, panic on the caller's goroutine. (An engine whose
// round failed keeps returning that first error: internal/worker's
// TestEnginePoisonedByCorruptFrame, where the frame can be corrupted.)
func TestEngineAggregateIntoErrors(t *testing.T) {
	d, part := smallSetup(t)
	n := d.NumNodes()
	for _, workers := range []int{1, 3} {
		eng := NewEngine(d.Graph, part, 3, Config{Workers: workers})
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
				t.Fatalf("workers %d, %s: AggregateInto accepted the shapes", workers, tc.name)
			}
		}
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("workers %d: %s did not panic", workers, what)
				}
			}()
			f()
		}
		mustPanic("Forward on a short matrix", func() { eng.Forward(tensor.New(n-1, 4)) })
		mustPanic("Backward on a short matrix", func() { eng.Backward(tensor.New(n-1, 4)) })

		// Not poisoned by the rejections: a well-shaped round runs.
		h5, out5 := randMat(n, 5, 63), tensor.New(n, 5)
		if err := eng.AggregateInto(out5, h5, false); err != nil {
			t.Fatalf("workers %d: engine poisoned by a rejected round: %v", workers, err)
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
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			eng := NewEngine(d.Graph, part, 3, cfg)
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
				t.Fatalf("%s workers %d: steady-state epoch allocates %v times", cfg.MethodName(), workers, allocs)
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
	for _, cfg := range []Config{{Workers: 8}, {Workers: 8, DelayPeriod: 2}} {
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
