package worker_test

// The analytic engine against the definitional oracle. This file is an
// external test of the worker directory because that is the one place both
// are in reach: the oracle lives in this directory's oracle_test.go, and
// internal/dist — which imports internal/worker — cannot be imported by the
// package's own tests.

import (
	"reflect"
	"strings"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/exchange"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// TestEngineSnapshotCounters keeps results/ honest: everything dist.Run's
// modeled epoch time is computed from — the five processing counters, the
// byte and message totals, both bottlenecks, and every individual link — is
// what the oracle's definitional loops count, on every lane of the method
// matrix plus a period-2 delay, over transmit and replay epochs and a closing
// StartEvalEpoch pass, forward and backward, on the caller's goroutine and
// fanned out. The cluster dist.Run trains on — reset before each epoch, as
// dist.Train resets it — takes these as sums over compiled plan sizes; the
// oracle counts them a term at a time.
func TestEngineSnapshotCounters(t *testing.T) {
	d := datasets.Generate(datasets.Spec{
		Name: "w", Nodes: 150, AvgDegree: 10, Classes: 3, FeatureDim: 5, Seed: 1,
	})
	const nparts = 3
	part := partition.Partition(d.Graph, nparts, partition.NodeCut, partition.Config{Seed: 2})
	h := tensor.New(d.NumNodes(), 6)
	g := tensor.New(d.NumNodes(), 6)
	for i := range h.Data {
		h.Data[i] = float64(i%17) - 8
		g.Data[i] = float64(i%13) / 4
	}

	lanes := exchange.MethodMatrix(9)
	lanes["delay2"] = exchange.Config{DelayPeriod: 2, Seed: 9}
	for name, cfg := range lanes {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 64} {
				cfg.Workers = workers
				cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
				ref := worker.NewOracle(d.Graph, part, nparts, cfg)
				check := func(epoch int, stage string) {
					t.Helper()
					got, want := cl.CaptureEpoch(), ref.CaptureEpoch()
					if got != want {
						t.Fatalf("workers %d epoch %d after %s:\ncluster %+v\noracle %+v", workers, epoch, stage, got, want)
					}
					worker.SameLinks(t, cl.Fabric(), ref.Fabric())
				}
				for epoch := 0; epoch < 5; epoch++ {
					if epoch == 4 {
						cl.StartEvalEpoch(epoch)
						ref.StartEvalEpoch(epoch)
					} else {
						cl.StartEpoch(epoch)
						ref.StartEpoch(epoch)
					}
					cl.ResetTraffic()
					cl.Forward(h)
					ref.Forward(h)
					check(epoch, "forward")
					cl.Backward(g)
					ref.Backward(g)
					check(epoch, "backward")
				}
			}
		})
	}
}

// TestEnginePoisonedByCorruptFrame: an engine round that decodes garbage —
// the same corrupt slot TestClusterCorruptBatchError plants — returns the
// decode error instead of panicking in a task goroutine, on the caller's
// goroutine and fanned out; the engine is poisoned from then on: every later
// round returns that first error, and Forward, which has no error result,
// panics with it on the caller's goroutine.
func TestEnginePoisonedByCorruptFrame(t *testing.T) {
	d := datasets.Generate(datasets.Spec{
		Name: "w", Nodes: 150, AvgDegree: 10, Classes: 3, FeatureDim: 5, Seed: 1,
	})
	const nparts = 3
	part := partition.Partition(d.Graph, nparts, partition.NodeCut, partition.Config{Seed: 2})
	h, out := tensor.New(d.NumNodes(), 4), tensor.New(d.NumNodes(), 4)
	for _, workers := range []int{1, nparts} {
		eng := dist.NewEngine(d.Graph, part, nparts, exchange.Config{Workers: workers})
		eng.StartEpoch(0)
		if err := eng.AggregateInto(out, h, false); err != nil {
			t.Fatal(err)
		}
		// The engine's cluster is its one unexported pointer field; the hook
		// that plants the frame is the cluster's.
		cl := reflect.ValueOf(eng).Elem().FieldByName("c").Addr().UnsafePointer()
		worker.CorruptFrame(*(**worker.Cluster)(cl), 0, 1)
		first := eng.AggregateInto(out, h, false)
		if first == nil || !strings.Contains(first.Error(), "corrupt") {
			t.Fatalf("workers %d: corrupt frame gave %v", workers, first)
		}
		for i := 0; i < 2; i++ {
			if err := eng.AggregateInto(out, h, true); err != first {
				t.Fatalf("workers %d: poisoned engine returned %v, want the first error %v", workers, err, first)
			}
		}
		func() {
			defer func() {
				if recover() != first {
					t.Fatalf("workers %d: Forward on a poisoned engine did not panic with the first error", workers)
				}
			}()
			eng.Forward(h)
		}()
	}
}
