package worker

import (
	"slices"
	"testing"

	"scgnn/internal/exchange"
	"scgnn/internal/partition"
	"scgnn/internal/sched"
	"scgnn/internal/tensor"
)

// schedMatrix wraps every EquivalenceLanes lane in a variable-rate
// schedule annealing toward it: the scheduled cross-runtime tests run the
// exact 13-lane coverage the fixed-rate equivalence matrix does, plus the
// rung transitions. EpochsPerLevel 1 makes a 6-epoch run traverse the whole
// ladder.
func schedMatrix(seed int64) map[string]exchange.Config {
	out := make(map[string]exchange.Config)
	for name, cfg := range EquivalenceLanes(seed) {
		cfg.Sched = sched.Policy{Enabled: true, EpochsPerLevel: 1}
		out["sched("+name+")"] = cfg
	}
	return out
}

// TestScheduledClusterEngineEquivalenceMatrix extends the oracle lockdown to
// scheduled runs: for every method combination under an active anneal, the
// worker cluster and the oracle must pick bit-identical per-epoch schedules
// from their independently collected signals, and match aggregates and
// per-epoch traffic snapshots exactly — including through a mid-training
// Repartition, which reseeds dirty pairs without disturbing the schedule.
func TestScheduledClusterEngineEquivalenceMatrix(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	part2 := partition.Partition(d.Graph, nparts, partition.NodeCut, partition.Config{Seed: 5})
	h := randMat(d.NumNodes(), 5, 77)
	g := randMat(d.NumNodes(), 5, 78)

	for name, cfg := range schedMatrix(9) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			ref := NewOracle(d.Graph, part, nparts, cfg)
			for epoch := 0; epoch < 6; epoch++ {
				if epoch == 3 {
					before := cl.ScheduleLevels()
					wantDirty, err := cl.Repartition(part2)
					if err != nil {
						t.Fatalf("cluster Repartition: %v", err)
					}
					gotDirty, err := ref.Repartition(part2)
					if err != nil {
						t.Fatalf("oracle Repartition: %v", err)
					}
					if !slices.Equal(gotDirty, wantDirty) {
						t.Fatalf("dirty sets differ: oracle %v, cluster %v", gotDirty, wantDirty)
					}
					if after := cl.ScheduleLevels(); !slices.Equal(after, before) {
						t.Fatalf("Repartition changed the rungs %v→%v", before, after)
					}
				}
				cl.ResetTraffic()
				cl.StartEpoch(epoch)
				gotF := cl.Forward(h)
				gotB := cl.Backward(g)
				snap := cl.CaptureEpoch()
				ref.StartEpoch(epoch)
				// Decisions exact: both ran the pure decision function on
				// their own signal snapshots.
				if clLv, refLv := cl.ScheduleLevels(), ref.ScheduleLevels(); !slices.Equal(clLv, refLv) {
					t.Fatalf("epoch %d: rungs %v (cluster) vs %v (oracle)", epoch, clLv, refLv)
				}
				wantF := ref.Forward(h)
				wantB := ref.Backward(g)
				if !gotF.Equal(wantF, 0) {
					t.Fatalf("epoch %d: forward diverged from the oracle", epoch)
				}
				if !gotB.Equal(wantB, 0) {
					t.Fatalf("epoch %d: backward diverged from the oracle", epoch)
				}
				if os := ref.CaptureEpoch(); !sameTraffic(snap, os) {
					t.Fatalf("epoch %d: wire traffic %+v vs oracle %+v", epoch, snap, os)
				}
			}
		})
	}
}

// schedCoordinator is the test stand-in for the multi-process coordinator's
// schedule driver: it owns the decision-side scheduler, merges the replicas'
// signal snapshots per the exactness contract, and pushes the decided levels
// to every peer — the protocol internal/net speaks over its SchedSig and
// Epoch frames.
type schedCoordinator struct {
	s      *sched.Scheduler
	nparts int
}

func newSchedCoordinator(cfg exchange.Config, nparts int) *schedCoordinator {
	return &schedCoordinator{
		s:      sched.New(cfg.Sched, cfg.BaseSetting(), cfg.Seed, nparts*nparts),
		nparts: nparts,
	}
}

func (sc *schedCoordinator) startEpoch(t *testing.T, epoch int, peers []*Peer) {
	t.Helper()
	perNode := make([][]sched.Signals, len(peers))
	for p, peer := range peers {
		perNode[p] = peer.SchedSignals()
	}
	sc.s.Advance(epoch, sched.MergeNodeSignals(sc.nparts, perNode))
	levels := sc.s.Levels()
	for p, peer := range peers {
		if err := peer.ApplySchedule(levels); err != nil {
			t.Fatalf("peer %d ApplySchedule: %v", p, err)
		}
	}
}

// TestScheduledPeerClusterEquivalence locks the externally driven schedule
// path to the self-advancing in-process cluster across the matrix: the
// coordinator merges per-replica signals, decides, and broadcasts, and the
// resulting schedules, aggregates, and traffic must match the cluster that
// decided alone — including through a mid-training Repartition.
func TestScheduledPeerClusterEquivalence(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	part2 := partition.Partition(d.Graph, nparts, partition.NodeCut, partition.Config{Seed: 5})
	h := randMat(d.NumNodes(), 5, 77)
	g := randMat(d.NumNodes(), 5, 78)
	want := tensor.New(d.NumNodes(), 5)

	for name, cfg := range schedMatrix(9) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			peers := make([]*Peer, nparts)
			for p := 0; p < nparts; p++ {
				peer, err := NewPeer(d.Graph, part, nparts, p, cfg)
				if err != nil {
					t.Fatalf("NewPeer(%d): %v", p, err)
				}
				peers[p] = peer
			}
			mesh := newPeerMesh(t, peers, 5)
			coord := newSchedCoordinator(cfg, nparts)

			for epoch := 0; epoch < 6; epoch++ {
				if epoch == 3 {
					if _, err := cl.Repartition(part2); err != nil {
						t.Fatalf("cluster Repartition: %v", err)
					}
					for p, peer := range peers {
						if _, err := peer.Repartition(part2); err != nil {
							t.Fatalf("peer %d Repartition: %v", p, err)
						}
					}
				}
				cl.ResetTraffic()
				cl.StartEpoch(epoch)
				mesh.fabric.Reset()
				coord.startEpoch(t, epoch, peers)
				for p, peer := range peers {
					peer.StartEpoch(epoch)
					// Externally pushed levels must equal the self-advanced
					// cluster's — signal merging loses nothing the decision
					// reads.
					got, wantLv := peer.ScheduleLevels(), cl.ScheduleLevels()
					for i := range wantLv {
						if got[i] != wantLv[i] {
							t.Fatalf("epoch %d peer %d: pair %d rung %d, cluster %d",
								epoch, p, i, got[i], wantLv[i])
						}
					}
				}
				for _, bwd := range []bool{false, true} {
					in := h
					if bwd {
						in = g
					}
					var wantOut *tensor.Matrix
					if bwd {
						wantOut = cl.Backward(in)
					} else {
						wantOut = cl.Forward(in)
					}
					mesh.scatter(in)
					if err := mesh.round(t, bwd); err != nil {
						t.Fatalf("epoch %d bwd=%v: %v", epoch, bwd, err)
					}
					mesh.gather(want)
					if !want.Equal(wantOut, 0) {
						t.Fatalf("epoch %d bwd=%v: peer aggregate diverged from cluster", epoch, bwd)
					}
				}
				if cs, ps := cl.CaptureEpoch(), mesh.fabric.Capture(); cs != ps {
					t.Fatalf("epoch %d: peer traffic %+v vs cluster %+v", epoch, ps, cs)
				}
			}
		})
	}
}

// TestScheduledPeerStateRestoreRoundtrip pins the checkpoint contract
// mid-anneal: capture every replica's State (schedule levels riding along) at
// an epoch boundary while pairs sit on different rungs, rebuild fresh
// replicas, restore — including the coordinator's scheduler, recovered from
// node 0's state the way the net coordinator does — and the resumed mesh must
// reproduce the uninterrupted aggregates bit for bit.
func TestScheduledPeerStateRestoreRoundtrip(t *testing.T) {
	d, part := setup(t, 3)
	const nparts, dim = 3, 5
	h := randMat(d.NumNodes(), dim, 81)
	g := randMat(d.NumNodes(), dim, 82)

	for name, cfg := range map[string]exchange.Config{
		"sched(quant4+ef)": {QuantBits: 4, ErrorFeedback: true, Seed: 9,
			Sched: sched.Policy{Enabled: true, EpochsPerLevel: 2}},
		"sched(semantic+sampling)": {Semantic: true, SampleRate: 0.5, Seed: 9,
			Sched: sched.Policy{Enabled: true, EpochsPerLevel: 2}},
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			build := func() []*Peer {
				peers := make([]*Peer, nparts)
				for p := 0; p < nparts; p++ {
					peer, err := NewPeer(d.Graph, part, nparts, p, cfg)
					if err != nil {
						t.Fatalf("NewPeer(%d): %v", p, err)
					}
					peers[p] = peer
				}
				return peers
			}
			// splitAt 3 with EpochsPerLevel 2 lands mid-anneal: some pairs
			// already climbed, none at the base yet.
			const splitAt, epochs = 3, 8
			runEpoch := func(mesh *peerMesh, peers []*Peer, coord *schedCoordinator, epoch int) []*tensor.Matrix {
				var outs []*tensor.Matrix
				coord.startEpoch(t, epoch, peers)
				for _, peer := range peers {
					peer.StartEpoch(epoch)
				}
				for _, bwd := range []bool{false, true} {
					in := h
					if bwd {
						in = g
					}
					mesh.scatter(in)
					if err := mesh.round(t, bwd); err != nil {
						t.Fatalf("epoch %d bwd=%v: %v", epoch, bwd, err)
					}
					got := tensor.New(d.NumNodes(), dim)
					mesh.gather(got)
					outs = append(outs, got)
				}
				return outs
			}

			peersA := build()
			meshA := newPeerMesh(t, peersA, dim)
			coordA := newSchedCoordinator(cfg, nparts)
			var states []*PeerState
			var want [][]*tensor.Matrix
			for e := 0; e < epochs; e++ {
				if e == splitAt {
					for _, peer := range peersA {
						states = append(states, peer.State())
					}
					if states[0].Levels == nil {
						t.Fatal("scheduled peer state carries no levels")
					}
					mid := false
					for _, lv := range states[0].Levels {
						if lv != 0 && int(lv) < len(sched.Ladder(cfg.BaseSetting()))-1 {
							mid = true
						}
					}
					if !mid {
						t.Fatalf("split epoch is not mid-anneal: levels %v", states[0].Levels)
					}
				}
				outs := runEpoch(meshA, peersA, coordA, e)
				if e >= splitAt {
					want = append(want, outs)
				}
			}

			peersB := build()
			meshB := newPeerMesh(t, peersB, dim)
			for p, peer := range peersB {
				if err := peer.Restore(states[p]); err != nil {
					t.Fatalf("Restore(%d): %v", p, err)
				}
			}
			// The coordinator recovers its decision-side levels from node 0's
			// blob — the scheme the net coordinator uses on resume.
			coordB := newSchedCoordinator(cfg, nparts)
			lv := make([]int, len(states[0].Levels))
			for i, v := range states[0].Levels {
				lv[i] = int(v)
			}
			if _, err := coordB.s.SetLevels(lv); err != nil {
				t.Fatalf("coordinator SetLevels: %v", err)
			}
			for e := splitAt; e < epochs; e++ {
				outs := runEpoch(meshB, peersB, coordB, e)
				for i, got := range outs {
					if !got.Equal(want[e-splitAt][i], 0) {
						t.Fatalf("epoch %d round %d: resumed aggregate != uninterrupted (bit-exact required)", e, i)
					}
				}
			}
		})
	}
}

// TestApplyScheduleValidation covers the external-path error cases.
func TestApplyScheduleValidation(t *testing.T) {
	d, part := setup(t, 3)
	cl := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{QuantBits: 8, Seed: 1})
	defer cl.Close()
	if err := cl.ApplySchedule([]int{0}); err == nil {
		t.Fatal("ApplySchedule accepted without a schedule")
	}
	sc := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{QuantBits: 8, Seed: 1,
		Sched: sched.Policy{Enabled: true}})
	defer sc.Close()
	if err := sc.ApplySchedule([]int{0}); err == nil {
		t.Fatal("short level vector accepted")
	}
	if err := sc.ApplySchedule([]int{9, 9, 9, 9, 9, 9, 9, 9, 9}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if err := sc.ApplySchedule([]int{1, 0, 0, 0, 1, 0, 0, 0, 1}); err != nil {
		t.Fatalf("valid levels rejected: %v", err)
	}
	if got := sc.ScheduleLevels(); got[0] != 1 || got[4] != 1 || got[8] != 1 {
		t.Fatalf("levels not applied: %v", got)
	}
}
