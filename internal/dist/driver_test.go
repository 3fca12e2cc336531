package dist

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"scgnn/internal/exchange"
	"scgnn/internal/sched"
	"scgnn/internal/simnet"
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

// sameTraffic compares the fabric half of two snapshots; the processing
// counters are the engine's alone (the cluster does not report them).
func sameTraffic(a, b simnet.Snapshot) bool {
	return a.TotalBytes == b.TotalBytes && a.TotalMessages == b.TotalMessages &&
		a.MaxInboundBytes == b.MaxInboundBytes && a.MaxInboundMessages == b.MaxInboundMessages &&
		a.MaxOutboundBytes == b.MaxOutboundBytes && a.MaxOutboundMessages == b.MaxOutboundMessages
}

// TestEngineEqualsCluster: the engine and the cluster drive one round body,
// so for every lane, at Workers 1 (caller's goroutine), nparts (one task per
// goroutine) and 64 (capped to nparts), the engine's aggregates, schedules,
// dirty sets and traffic equal the cluster's exactly — through six epochs, a
// mid-run Repartition and a closing StartEvalEpoch pass, which between them
// cross fresh, replayed and bypassed delay slots. The cluster is held to the
// definitional oracle in internal/worker; this test carries that to the
// engine. It rides `make race` ten times over: the in-memory slots are
// written in one fork-join and read in the next.
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
						got, err := eng.Repartition(next)
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
				wantSnap, wantLv := cl.Snapshot(), cl.ScheduleLevels()
				for i, eng := range engs {
					if eval {
						eng.StartEvalEpoch(epoch)
					} else {
						eng.StartEpoch(epoch)
					}
					if lv := eng.ScheduleLevels(); !slices.Equal(lv, wantLv) {
						t.Fatalf("epoch %d workers %d: rungs %v, cluster %v", epoch, workers[i], lv, wantLv)
					}
					bitEqual(t, name, epoch, "forward", wantF, eng.Forward(h))
					bitEqual(t, name, epoch, "backward", wantB, eng.Backward(g))
					if snap := eng.CaptureEpoch(); !sameTraffic(snap, wantSnap) {
						t.Fatalf("epoch %d workers %d: traffic %+v, cluster %+v", epoch, workers[i], snap, wantSnap)
					}
				}
			}
		})
	}
}

// TestEngineAggregateIntoErrors: a mis-shaped h or dst is an error before
// anything runs — not the panic the engine's own aggregate used to raise —
// and leaves the engine healthy; Forward and Backward, which have no error
// result, panic on the caller's goroutine; and an engine whose round failed
// keeps returning that first error.
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

		// Fail a round the only way an in-memory transport can: break the
		// halves' contract, so worker 1's peers decode its frames of the
		// previous, wider round.
		h3, out3 := randMat(n, 3, 64), tensor.New(n, 3)
		if _, err := eng.rt.Begin(out3, h3, false); err != nil {
			t.Fatal(err)
		}
		eng.rt.SendHalf(0)
		eng.rt.SendHalf(2)
		for p := 0; p < 3; p++ {
			eng.rt.RecvHalf(p)
		}
		first := eng.rt.End()
		if first == nil {
			t.Fatalf("workers %d: stale frames of another width decoded cleanly", workers)
		}
		for i := 0; i < 2; i++ {
			if err := eng.AggregateInto(out3, h3, false); err != first {
				t.Fatalf("workers %d: poisoned engine returned %v, want the first error %v", workers, err, first)
			}
		}
		mustPanic("Forward on a poisoned engine", func() { eng.Forward(h3) })
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
