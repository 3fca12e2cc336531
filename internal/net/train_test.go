package net

import (
	"math"
	"path/filepath"
	"testing"

	"scgnn/internal/dist"
	"scgnn/internal/worker"
)

// TestTrainFleetMatchesCluster: dist.Train, the one training driver, trains
// the same run on an in-process fleet as on a worker.Cluster — every epoch's
// loss to the bit, its bytes and messages exactly, and the same TestAcc. A
// run resumed through RunConfig.Checkpoint on a fresh fleet, from a file a
// shorter checkpointed run left mid-way, then matches the undisturbed run
// from the boundary on. Its first epoch ships layer 0's forward round again
// (a restored fleet has no kept round), so it carries epoch 0's bytes and
// messages.
func TestTrainFleetMatchesCluster(t *testing.T) {
	const (
		nparts = 3
		epochs = 8
		ckAt   = 4
	)
	d, part, _ := testGraph(t, nparts)
	cfg := dist.Config{QuantBits: 8, Seed: 6}
	run := dist.RunConfig{Hidden: 8, Epochs: epochs, Seed: 3}
	train := func(rt dist.Runtime, run dist.RunConfig) *dist.Result {
		t.Helper()
		res, err := dist.Train(rt, d, cfg, nparts, run)
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		return res
	}
	fleet := func() *Coordinator {
		tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
		if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
			t.Fatalf("setup: %v", err)
		}
		return tc.coord
	}

	want := train(worker.NewClusterFromConfig(d.Graph, part, nparts, cfg), run)
	got := train(fleet(), run)
	sameRun(t, "fleet", got, want, 0)

	path := filepath.Join(shortTempDir(t), "train.ck")
	short, full := run, run
	short.Epochs, short.Checkpoint = ckAt+1, path
	full.Checkpoint = path
	train(fleet(), short) // leaves the file at boundary ckAt
	resumed := train(fleet(), full)
	if resumed.StartEpoch != ckAt {
		t.Fatalf("resumed at epoch %d, want %d", resumed.StartEpoch, ckAt)
	}
	if r, w := resumed.Epochs[0], want.Epochs[0]; r.Bytes != w.Bytes || r.Messages != w.Messages {
		t.Fatalf("resumed epoch %d: %d bytes in %d messages, want epoch 0's %d in %d",
			ckAt, r.Bytes, r.Messages, w.Bytes, w.Messages)
	}
	resumed.Epochs[0].Bytes, resumed.Epochs[0].Messages = want.Epochs[ckAt].Bytes, want.Epochs[ckAt].Messages
	sameRun(t, "resumed", resumed, want, ckAt)
}

// sameRun holds got, which trained want's epochs from first on, to want:
// losses by bit pattern, accuracies, bytes and messages exactly. Modeled
// time is not compared: a fleet reports no processing counters.
func sameRun(t *testing.T, name string, got, want *dist.Result, first int) {
	t.Helper()
	if len(got.Epochs) != len(want.Epochs)-first {
		t.Fatalf("%s: %d epochs, want %d", name, len(got.Epochs), len(want.Epochs)-first)
	}
	for i, g := range got.Epochs {
		w := want.Epochs[first+i]
		if g.Epoch != w.Epoch || math.Float64bits(g.Loss) != math.Float64bits(w.Loss) ||
			g.TrainAcc != w.TrainAcc || g.ValAcc != w.ValAcc || g.Bytes != w.Bytes || g.Messages != w.Messages {
			t.Fatalf("%s: epoch %+v, want %+v", name, g, w)
		}
	}
	if got.TestAcc != want.TestAcc || got.BestValAcc != want.BestValAcc {
		t.Fatalf("%s: TestAcc %v (best val %v), want %v (%v)",
			name, got.TestAcc, got.BestValAcc, want.TestAcc, want.BestValAcc)
	}
}
