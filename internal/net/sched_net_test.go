package net

import (
	"path/filepath"
	"testing"

	"scgnn/internal/dist"
	"scgnn/internal/exchange"
	"scgnn/internal/gnn"
	"scgnn/internal/sched"
	"scgnn/internal/worker"
)

// schedMatrix wraps every MethodMatrix combination in an active anneal, so
// the socket-deployment lockdown runs the same 13-combo coverage as the
// fixed-rate matrix plus every rung transition (EpochsPerLevel 1 traverses
// the whole ladder inside the test's epochs).
func schedMatrix(seed int64) map[string]dist.Config {
	out := make(map[string]dist.Config)
	for name, cfg := range exchange.MethodMatrix(seed) {
		cfg.Sched = sched.Policy{Enabled: true, EpochsPerLevel: 1}
		out["sched("+name+")"] = cfg
	}
	return out
}

// TestScheduledCoordClusterEquivalenceMatrix extends the socket-vs-cluster
// lock to scheduled runs: the coordinator gathers per-node signals over
// SchedSig frames, decides centrally, and broadcasts SchedUpdate — and the
// resulting per-epoch schedules, aggregates and traffic snapshots must equal
// the self-advancing in-process cluster's exactly, through a mid-training
// Repartition.
func TestScheduledCoordClusterEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node matrix is not short")
	}
	const nparts = 3
	d, part, part2 := testGraph(t, nparts)
	h := randMat(d.NumNodes(), 5, 77)
	g := randMat(d.NumNodes(), 5, 78)

	for name, cfg := range schedMatrix(9) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
			if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
				t.Fatalf("setup: %v", err)
			}

			for epoch := 0; epoch < 6; epoch++ {
				if epoch == 3 {
					if _, err := cl.Repartition(part2); err != nil {
						t.Fatalf("cluster repartition: %v", err)
					}
					before := tc.coord.ScheduleLevels()
					if _, err := tc.coord.Repartition(part2); err != nil {
						t.Fatalf("coordinator repartition: %v", err)
					}
					for i, lv := range tc.coord.ScheduleLevels() {
						if lv != before[i] {
							t.Fatalf("repartition changed pair %d rung %d→%d", i, before[i], lv)
						}
					}
				}
				cl.ResetTraffic()
				cl.StartEpoch(epoch)
				tc.coord.StartEpoch(epoch)
				want, got := cl.ScheduleLevels(), tc.coord.ScheduleLevels()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("epoch %d: pair %d rung %d (coordinator) vs %d (cluster)",
							epoch, i, got[i], want[i])
					}
				}
				for _, bwd := range []bool{false, true} {
					in := h
					if bwd {
						in = g
					}
					var wantOut = cl.Forward
					if bwd {
						wantOut = cl.Backward
					}
					w := wantOut(in)
					out, err := tc.coord.Round(in, bwd)
					if err != nil {
						t.Fatalf("epoch %d bwd=%v: %v", epoch, bwd, err)
					}
					if !out.Equal(w, 0) {
						t.Fatalf("epoch %d bwd=%v: socket aggregate diverged from cluster", epoch, bwd)
					}
				}
				if cs, ns := cl.Snapshot(), tc.coord.CaptureEpoch(); cs != ns {
					t.Fatalf("epoch %d: socket traffic %+v vs cluster %+v", epoch, ns, cs)
				}
			}
			tc.coord.Shutdown()
		})
	}
}

// TestScheduledKillRespawnRecover is the schedule-in-flight crash drill: a
// node dies mid-anneal (pairs sitting on different rungs), is respawned (its
// fresh peer starts at rung 0), and RecoverNode + RestoreStates must rewind
// the fleet — node stream state, node schedule levels, AND the coordinator's
// decision-side levels — so every remaining epoch matches an undisturbed run
// bit for bit.
func TestScheduledKillRespawnRecover(t *testing.T) {
	const (
		nparts = 3
		epochs = 6
		killAt = 3
		dead   = 1
	)
	cfg := dist.Config{QuantBits: 8, ErrorFeedback: true, Seed: 13,
		Sched: sched.Policy{Enabled: true}}
	d, part, _ := testGraph(t, nparts)
	h := randMat(d.NumNodes(), 4, 41)
	g := randMat(d.NumNodes(), 4, 42)
	want := referenceRun(t, nparts, epochs, cfg, h, g, -1, nil)

	tc := startCluster(t, nparts, faultNodeOpts(), faultCoordOpts())
	if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatalf("setup: %v", err)
	}
	var blobs [][]byte
	for epoch := 0; epoch < epochs; epoch++ {
		var err error
		if blobs, err = tc.coord.CollectStates(); err != nil {
			t.Fatalf("epoch %d: collect states: %v", epoch, err)
		}
		if epoch == killAt {
			// The kill must land mid-anneal: the coordinator's levels are past
			// rung 0 somewhere and not yet all at the base rung.
			mid := false
			for _, lv := range tc.coord.ScheduleLevels() {
				if lv > 0 && lv < len(sched.Ladder(cfg.BaseSetting()))-1 {
					mid = true
				}
			}
			if !mid {
				t.Fatalf("kill epoch is not mid-anneal: levels %v", tc.coord.ScheduleLevels())
			}
			tc.nodes[dead].Close()
			if _, err := runEpoch(tc, epoch, h, g); err == nil {
				t.Fatal("epoch against a dead node succeeded")
			} else if !isTypedNetErr(err) {
				t.Fatalf("dead node surfaced untyped error: %v", err)
			}
			tc.respawnNode(t, dead, faultNodeOpts())
			if err := tc.coord.RecoverNode(dead); err != nil {
				t.Fatalf("recover node: %v", err)
			}
			if err := tc.coord.RestoreStates(blobs); err != nil {
				t.Fatalf("restore states: %v", err)
			}
		}
		eo, err := runEpoch(tc, epoch, h, g)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if !eo.fwd.Equal(want[epoch].fwd, 0) || !eo.bwd.Equal(want[epoch].bwd, 0) {
			t.Fatalf("epoch %d: aggregates diverged from undisturbed reference", epoch)
		}
	}
	tc.coord.Shutdown()
}

// TestScheduledCheckpointResume is the schedule-riding-the-checkpoint
// satellite at training level: a scheduled run checkpointed mid-anneal,
// shipped to a file, and resumed on a fresh fleet must reproduce the
// uninterrupted run loss for loss. The checkpoint's node blobs carry the
// levels; RestoreStates recovers the coordinator's decision state from them.
func TestScheduledCheckpointResume(t *testing.T) {
	const (
		nparts = 3
		ckAt   = 3 // mid-anneal with the default EpochsPerLevel of 2
	)
	tcfg := gnn.TrainConfig{Epochs: 8, LR: 0.02}
	cfg := dist.Config{QuantBits: 8, ErrorFeedback: true, Seed: 6,
		Sched: sched.Policy{Enabled: true}}

	path := filepath.Join(shortTempDir(t), "train.ck")
	ref := newTrainRun(t, nparts, cfg, tcfg)
	for !ref.trainer.Done() {
		if ref.trainer.NextEpoch() == ckAt {
			ref.save(t, path)
		}
		if _, err := ref.trainer.RunEpoch(); err != nil {
			t.Fatalf("epoch %d: %v", ref.trainer.NextEpoch(), err)
		}
	}
	want, err := ref.trainer.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	ref.tc.coord.Shutdown()

	// The checkpointed node state must carry a mid-anneal level vector.
	ck, err := LoadTrainingCheckpoint(path)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	st, err := decodePeerState(ck.Nodes[0])
	if err != nil {
		t.Fatalf("decode node 0 blob: %v", err)
	}
	if st.Levels == nil {
		t.Fatal("scheduled checkpoint carries no levels")
	}
	mid := false
	for _, lv := range st.Levels {
		if lv > 0 && int(lv) < len(sched.Ladder(cfg.BaseSetting()))-1 {
			mid = true
		}
	}
	if !mid {
		t.Fatalf("checkpoint epoch is not mid-anneal: levels %v", st.Levels)
	}

	res := newTrainRun(t, nparts, cfg, tcfg)
	res.restore(t, path)
	for !res.trainer.Done() {
		if _, err := res.trainer.RunEpoch(); err != nil {
			t.Fatalf("resumed epoch %d: %v", res.trainer.NextEpoch(), err)
		}
	}
	got, err := res.trainer.Finish()
	if err != nil {
		t.Fatalf("resumed finish: %v", err)
	}
	for e := ckAt; e < len(want.Epochs); e++ {
		if want.Epochs[e] != got.Epochs[e] {
			t.Fatalf("epoch %d: resumed %+v, uninterrupted %+v", e, got.Epochs[e], want.Epochs[e])
		}
	}
	if got.TestAcc != want.TestAcc {
		t.Fatalf("resumed TestAcc %v, uninterrupted %v", got.TestAcc, want.TestAcc)
	}
	res.tc.coord.Shutdown()
}
