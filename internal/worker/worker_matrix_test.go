package worker

import (
	"math/rand"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/gnn"
	"scgnn/internal/partition"
)

// TestClusterEngineEquivalenceMatrix is the cross-engine lockdown of the
// full Fig. 12(b) method coverage: for every one of the 13 method
// combinations, the concurrent worker cluster must match the analytic engine
// at each of its schedules (Workers 1 sequential, 4 receiver-sharded, 64
// row-sharded) — aggregates to fp32 wire precision, per-epoch traffic
// snapshots exactly — across five epochs of forward+backward rounds, so
// per-pair RNG streams, adaptive width choices, delay replays, and
// error-feedback residuals all stay in lockstep.
func TestClusterEngineEquivalenceMatrix(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	h := randMat(d.NumNodes(), 5, 77)
	g := randMat(d.NumNodes(), 5, 78)

	for name, cfg := range dist.MethodMatrix(9) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			// A second cluster pinned to the retained per-member reference
			// bodies: the compiled hot path must not drift from them by a bit
			// under any method combination (lockstep across a Repartition
			// lives in TestKernelReferenceLockstep).
			ref := NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer ref.Close()
			ref.useReference = true
			workerCounts := []int{1, 4, 64}
			engs := make([]*dist.Engine, len(workerCounts))
			for i, w := range workerCounts {
				ec := cfg
				ec.Workers = w
				engs[i] = dist.NewEngine(d.Graph, part, nparts, ec)
			}
			for epoch := 0; epoch < 5; epoch++ {
				cl.ResetTraffic()
				cl.StartEpoch(epoch)
				gotF := cl.Forward(h)
				gotB := cl.Backward(g)
				snap := cl.Snapshot()
				ref.ResetTraffic()
				ref.StartEpoch(epoch)
				refF := ref.Forward(h)
				refB := ref.Backward(g)
				if !gotF.Equal(refF, 0) {
					t.Fatalf("epoch %d: kernel forward diverged from reference bodies", epoch)
				}
				if !gotB.Equal(refB, 0) {
					t.Fatalf("epoch %d: kernel backward diverged from reference bodies", epoch)
				}
				if rs := ref.Snapshot(); snap != rs {
					t.Fatalf("epoch %d: kernel traffic %+v vs reference %+v", epoch, snap, rs)
				}
				for i, eng := range engs {
					w := workerCounts[i]
					eng.StartEpoch(epoch)
					wantF := eng.Forward(h)
					wantB := eng.Backward(g)
					// Values to fp32 tolerance: the wire ships fp32
					// payloads/metadata, the engine computes in float64.
					if tol := 1e-3 * (1 + wantF.MaxAbs()); !gotF.Equal(wantF, tol) {
						t.Fatalf("epoch %d workers %d: forward diverged from engine", epoch, w)
					}
					if tol := 1e-3 * (1 + wantB.MaxAbs()); !gotB.Equal(wantB, tol) {
						t.Fatalf("epoch %d workers %d: backward diverged from engine", epoch, w)
					}
					// Traffic exactly: measured wire bytes = analytic bytes,
					// per epoch, including zero-byte delay replays.
					es := eng.CaptureEpoch()
					if snap.TotalBytes != es.TotalBytes || snap.TotalMessages != es.TotalMessages ||
						snap.MaxInboundBytes != es.MaxInboundBytes || snap.MaxInboundMessages != es.MaxInboundMessages ||
						snap.MaxOutboundBytes != es.MaxOutboundBytes || snap.MaxOutboundMessages != es.MaxOutboundMessages {
						t.Fatalf("epoch %d workers %d: wire traffic %+v vs engine %+v",
							epoch, w, snap, es)
					}
				}
			}
		})
	}
}

// TestClusterStartEvalEpochBypassesDelay mirrors the engine's eval-bypass
// contract on the wire runtime: a StartEvalEpoch pass under delayed
// transmission computes fresh remote contributions (paying their traffic)
// and neither reads nor writes the delay cache, so resumed training replays
// exactly what it would have without the eval pass.
func TestClusterStartEvalEpochBypassesDelay(t *testing.T) {
	d, part := setup(t, 3)
	h0 := randMat(d.NumNodes(), 4, 21)
	h1 := randMat(d.NumNodes(), 4, 22)

	delayed := NewClusterFromConfig(d.Graph, part, 3, dist.Delay(2))
	defer delayed.Close()
	vanilla := NewClusterFromConfig(d.Graph, part, 3, dist.Vanilla())
	defer vanilla.Close()

	delayed.StartEpoch(0) // fresh epoch: caches h0's remote contribution
	delayed.Forward(h0)

	// Epoch 1 is a replay epoch (1 % 2 != 0): a training pass would reuse
	// h0's stale remote rows. The eval pass must see h1 everywhere and must
	// exchange real bytes to do it.
	delayed.ResetTraffic()
	delayed.StartEvalEpoch(1)
	got := delayed.Forward(h1)
	if bytes, _ := delayed.Traffic(); bytes == 0 {
		t.Fatal("eval pass under delay produced no wire traffic")
	}
	vanilla.StartEpoch(1)
	want := vanilla.Forward(h1)
	if !got.Equal(want, 0) {
		t.Fatal("eval pass under delay != fresh vanilla exchange")
	}

	// Resumed training at epoch 1 still replays the *h0* cache with zero
	// traffic — the eval pass neither consumed nor overwrote it. The control
	// cluster runs the same schedule without the interleaved eval.
	control := NewClusterFromConfig(d.Graph, part, 3, dist.Delay(2))
	defer control.Close()
	control.StartEpoch(0)
	control.Forward(h0)
	control.StartEpoch(1)
	wantReplay := control.Forward(h1)

	delayed.ResetTraffic()
	delayed.StartEpoch(1)
	replay := delayed.Forward(h1)
	if bytes, _ := delayed.Traffic(); bytes != 0 {
		t.Fatalf("replay epoch transmitted %d bytes", bytes)
	}
	if !replay.Equal(wantReplay, 0) {
		t.Fatal("post-eval replay drifted from the undisturbed schedule")
	}
}

// TestClusterFinalEvalUsesActualNextEpoch is the worker-runtime mirror of
// the runner regression: with early stopping and delayed transmission, the
// final test accuracy must not depend on whether the *configured* epoch
// budget lands on a transmit epoch. gnn.Train marks the final pass through
// the EvalMarker interface with the actual next epoch; before that hook, the
// final forward silently reused the last training epoch's delay schedule.
// The wire runtime is bit-deterministic, so exact equality is required.
func TestClusterFinalEvalUsesActualNextEpoch(t *testing.T) {
	d := datasets.PubMedSim(3)
	part := partition.Partition(d.Graph, 2, partition.NodeCut, partition.Config{Seed: 4})

	var stop, epochs0 int
	var acc0 float64
	for i, budget := range []int{100, 101, 102, 103} {
		c := NewClusterFromConfig(d.Graph, part, 2, dist.Delay(3))
		rng := rand.New(rand.NewSource(2))
		model := gnn.NewGCN(c, []int{d.FeatureDim(), 32, d.NumClasses}, rng)
		r := gnn.Train(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask,
			gnn.TrainConfig{Epochs: budget, LR: 0.02, Patience: 5})
		c.Close()
		if len(r.Epochs) >= budget {
			t.Fatalf("early stopping did not trigger within budget %d", budget)
		}
		if i == 0 {
			stop, epochs0, acc0 = len(r.Epochs), budget, r.TestAcc
			continue
		}
		if len(r.Epochs) != stop {
			t.Fatalf("budgets %d and %d diverged before the final eval: %d vs %d epochs",
				epochs0, budget, stop, len(r.Epochs))
		}
		if r.TestAcc != acc0 {
			t.Fatalf("final accuracy depends on the configured epoch budget: %v (budget %d) vs %v (budget %d)",
				acc0, epochs0, r.TestAcc, budget)
		}
	}
}
