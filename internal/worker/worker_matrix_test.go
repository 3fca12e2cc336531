package worker

import (
	"math"
	"math/rand"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/exchange"
	"scgnn/internal/gnn"
	"scgnn/internal/partition"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
)

// TestClusterEngineEquivalenceMatrix is the lockdown of the full Fig. 12(b)
// method coverage against the definitional oracle (oracle_test.go — the
// analytic engine's former sink): for every one of the 13 method combinations
// the concurrent worker cluster, on its compiled gather plans, fused kernels
// and real wire frames, must match the oracle's per-member loops and per-unit
// grid round trips — aggregates, per-epoch traffic snapshots and every single
// link's bytes and messages exactly — across five epochs of forward+backward
// rounds, so per-pair RNG streams, adaptive width choices, delay replays, and
// error-feedback residuals all stay in lockstep; and at every fork-join width:
// Workers 1 (the caller's goroutine), 2 (tasks that take several partitions),
// nparts (the default's one per partition) and 64 (capped to nparts).
// (dist.Engine is this cluster plus an epoch reset; internal/dist holds it to
// the default-width cluster through a repartition.)
func TestClusterEngineEquivalenceMatrix(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	h := randMat(d.NumNodes(), 5, 77)
	g := randMat(d.NumNodes(), 5, 78)

	for name, cfg := range exchange.MethodMatrix(9) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, nparts, 64} {
				cfg.Workers = workers
				cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
				ref := NewOracle(d.Graph, part, nparts, cfg)
				for epoch := 0; epoch < 5; epoch++ {
					cl.ResetTraffic()
					cl.StartEpoch(epoch)
					gotF := cl.Forward(h)
					gotB := cl.Backward(g)
					snap := cl.Snapshot()
					ref.StartEpoch(epoch)
					wantF := ref.Forward(h)
					wantB := ref.Backward(g)
					if !gotF.Equal(wantF, 0) {
						t.Fatalf("workers %d epoch %d: forward diverged from the oracle", workers, epoch)
					}
					if !gotB.Equal(wantB, 0) {
						t.Fatalf("workers %d epoch %d: backward diverged from the oracle", workers, epoch)
					}
					// Traffic exactly: measured wire bytes = the oracle's
					// arithmetic, per epoch, including zero-byte delay replays.
					if os := ref.CaptureEpoch(); !sameTraffic(snap, os) {
						t.Fatalf("workers %d epoch %d: wire traffic %+v vs oracle %+v", workers, epoch, snap, os)
					}
					SameLinks(t, cl.fabric, ref.Fabric())
				}
			}
		})
	}
}

// sameTraffic compares the fabric half of two snapshots (totals and both
// bottlenecks); the processing counters are the analytic engine's alone.
func sameTraffic(a, b simnet.Snapshot) bool {
	return a.TotalBytes == b.TotalBytes && a.TotalMessages == b.TotalMessages &&
		a.MaxInboundBytes == b.MaxInboundBytes && a.MaxInboundMessages == b.MaxInboundMessages &&
		a.MaxOutboundBytes == b.MaxOutboundBytes && a.MaxOutboundMessages == b.MaxOutboundMessages
}

// sameBits reports bit-for-bit equality with any NaN matching any NaN (which
// NaN an x86 operation propagates depends on the compiler's operand order, so
// NaN payload bits are not pinned anywhere in this repository).
func sameBits(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, x := range a.Data {
		y := b.Data[i]
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return false
		}
	}
	return true
}

// TestNonFinitePayloadsAgree pins the non-finite policy across runtimes: a
// NaN or ±Inf in a boundary row crosses the wire as a poisoned unit (plain
// payloads carry it as the fp32 it is), the streaming decoder accepts the
// frames, and the cluster's aggregate equals the oracle's bit for bit — in
// the poisoned round and in the clean round after it, where error feedback
// replays the poisoned residual.
func TestNonFinitePayloadsAgree(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	// A sender with a neighbour in another partition, so the poison is
	// certain to ride a message.
	sender, receiver := -1, -1
	for u := 0; u < d.NumNodes() && sender < 0; u++ {
		for _, v := range d.Graph.Neighbors(int32(u)) {
			if part[v] != part[u] {
				sender, receiver = u, int(v)
				break
			}
		}
	}
	if sender < 0 {
		t.Fatal("partition has no cross edge")
	}
	nan, inf := math.NaN(), math.Inf(1)
	poisons := map[string][]float64{
		"nan": {nan}, "+inf": {inf}, "-inf": {-inf}, "mixed": {inf, nan, -inf},
	}
	plan := core.PlanConfig{Grouping: core.GroupingConfig{K: 2, Seed: 7}}
	cfgs := map[string]exchange.Config{
		"plain":             {},
		"fixed":             {QuantBits: 8},
		"adaptive":          {QuantBits: 8, AdaptiveQuant: true},
		"fixed+ef":          {QuantBits: 8, ErrorFeedback: true},
		"adaptive+ef":       {QuantBits: 8, AdaptiveQuant: true, ErrorFeedback: true},
		"semantic+fixed+ef": {Semantic: true, Plan: plan, QuantBits: 4, ErrorFeedback: true},
	}
	clean := randMat(d.NumNodes(), 5, 31)
	for pname, poison := range poisons {
		dirty := clean.Clone()
		copy(dirty.Row(sender), poison)
		for cname, cfg := range cfgs {
			t.Run(pname+"/"+cname, func(t *testing.T) {
				cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
				defer cl.Close()
				ref := NewOracle(d.Graph, part, nparts, cfg)
				for epoch, h := range []*tensor.Matrix{dirty, clean} {
					cl.StartEpoch(epoch)
					ref.StartEpoch(epoch)
					for _, backward := range []bool{false, true} {
						got := tensor.New(h.Rows, h.Cols)
						if err := cl.AggregateInto(got, h, backward); err != nil {
							t.Fatalf("epoch %d backward=%v: cluster rejected its own frames: %v", epoch, backward, err)
						}
						if epoch == 0 && !math.IsNaN(got.Row(receiver)[0]) && !math.IsInf(got.Row(receiver)[0], 0) {
							t.Fatalf("backward=%v: the poison never reached node %d", backward, receiver)
						}
						want := ref.Forward
						if backward {
							want = ref.Backward
						}
						if !sameBits(got, want(h)) {
							t.Fatalf("epoch %d backward=%v: cluster and oracle disagree", epoch, backward)
						}
					}
				}
			})
		}
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

	delayed := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{DelayPeriod: 2})
	defer delayed.Close()
	vanilla := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{})
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
	control := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{DelayPeriod: 2})
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
// budget lands on a transmit epoch. Trainer.Finish marks the final pass
// through the EvalMarker interface with the actual next epoch; before that
// hook, the final forward silently reused the last training epoch's delay
// schedule.
// The wire runtime is bit-deterministic, so exact equality is required.
func TestClusterFinalEvalUsesActualNextEpoch(t *testing.T) {
	d := datasets.PubMedSim(3)
	part := partition.Partition(d.Graph, 2, partition.NodeCut, partition.Config{Seed: 4})

	var stop, epochs0 int
	var acc0 float64
	for i, budget := range []int{100, 101, 102, 103} {
		c := NewClusterFromConfig(d.Graph, part, 2, exchange.Config{DelayPeriod: 3})
		rng := rand.New(rand.NewSource(2))
		model := gnn.NewGCN(c, []int{d.FeatureDim(), 32, d.NumClasses}, rng)
		r := trainModel(t, model, d, gnn.TrainConfig{Epochs: budget, LR: 0.02, Patience: 5})
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
