package worker

import (
	"math"
	"testing"
	"time"

	"scgnn/internal/core"
	"scgnn/internal/exchange"
	"scgnn/internal/tensor"
)

// TestClusterArrivalOrderInvariant: a cluster's output must not depend on the
// order its workers' frames come into being. A phaseHook stalls one worker
// just before its sends, so its frames are the round's last and every other
// worker is through its send half before they exist; across every choice of
// the stalled worker, forward and
// backward outputs of a four-worker cluster must be Float64bits-equal to an
// undisturbed run — for the plain, the semantic and a stateful (quant8 +
// error feedback) exchange, over two epochs so the residual stores are
// exercised. (Over sockets, where frames do arrive in any order, the
// ascending drain is pinned by internal/net's TestCoordClusterEquivalenceMatrix:
// a fleet whose nodes summed in arrival order would not be Float64bits-equal
// to this cluster.)
func TestClusterArrivalOrderInvariant(t *testing.T) {
	const nparts = 4
	d, part := setup(t, nparts)
	h := randMat(d.NumNodes(), 6, 31)
	g := randMat(d.NumNodes(), 6, 32)
	run := func(cfg exchange.Config, stalled int) []*tensor.Matrix {
		c := NewClusterFromConfig(d.Graph, part, nparts, cfg)
		defer c.Close()
		if stalled >= 0 {
			c.phaseHook = func(worker int, phase string) {
				if worker == stalled && phase == "local-boundary" {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}
		var outs []*tensor.Matrix
		for epoch := 0; epoch < 2; epoch++ {
			c.StartEpoch(epoch)
			outs = append(outs, c.Forward(h), c.Backward(g))
		}
		return outs
	}
	for name, cfg := range map[string]exchange.Config{
		"vanilla":   {},
		"semantic":  {Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 5}}},
		"quant8+ef": {QuantBits: 8, ErrorFeedback: true},
	} {
		t.Run(name, func(t *testing.T) {
			want := run(cfg, -1)
			for stalled := 0; stalled < nparts; stalled++ {
				for r, got := range run(cfg, stalled) {
					for i, v := range got.Data {
						if math.Float64bits(v) != math.Float64bits(want[r].Data[i]) {
							t.Fatalf("worker %d stalled, round %d: value %d = %x, undisturbed %x",
								stalled, r, i, math.Float64bits(v), math.Float64bits(want[r].Data[i]))
						}
					}
				}
			}
		})
	}
}

// TestRoundRejectsMisshapedMatrices: one check, one behaviour — both drivers
// return an error for a mis-shaped h or out before anything runs, stay
// healthy afterwards, and only Forward/Backward (no error result) panic, on
// the caller's goroutine.
func TestRoundRejectsMisshapedMatrices(t *testing.T) {
	d, part := setup(t, 3)
	n := d.NumNodes()
	c := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{})
	defer c.Close()
	peer, err := NewPeer(d.Graph, part, 3, 0, exchange.Config{})
	if err != nil {
		t.Fatal(err)
	}
	noSend := func(int, []byte) error { t.Error("send reached on a mis-shaped round"); return nil }
	noRecv := func() (int, []byte, error) { t.Error("recv reached on a mis-shaped round"); return 0, nil, nil }
	for _, tc := range []struct {
		name   string
		h, out *tensor.Matrix
	}{
		{"short h", tensor.New(n-1, 4), tensor.New(n, 4)},
		{"short out", tensor.New(n, 4), tensor.New(n-1, 4)},
		{"cols differ", tensor.New(n, 4), tensor.New(n, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := c.AggregateInto(tc.out, tc.h, false); err == nil {
				t.Fatal("Cluster.AggregateInto accepted the shapes")
			}
			if err := peer.Round(tc.h, tc.out, false, noSend, noRecv); err == nil {
				t.Fatal("Peer.Round accepted the shapes")
			}
		})
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Forward on a short matrix did not panic")
			}
		}()
		c.Forward(tensor.New(n-1, 4))
	}()
	// Neither driver is poisoned: a well-shaped round still runs.
	if err := c.AggregateInto(tensor.New(n, 4), randMat(n, 4, 33), false); err != nil {
		t.Fatalf("cluster poisoned by a rejected round: %v", err)
	}
}
