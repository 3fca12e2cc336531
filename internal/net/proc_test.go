package net

import (
	"fmt"
	"math/rand"
	stdnet "net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/gnn"
	"scgnn/internal/worker"
)

// The headline scenario runs each partition as a real OS process. The test
// binary re-execs itself: when these env vars are set, TestMain becomes a
// node server instead of running tests — the standard subprocess pattern,
// which keeps everything inside one -race-instrumented binary.
const (
	nodeEnvAddr    = "SCGNN_NODE_ADDR"
	nodeEnvTimeout = "SCGNN_NODE_TIMEOUT"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(nodeEnvAddr); addr != "" {
		runNodeProcess(addr)
		return
	}
	os.Exit(m.Run())
}

// runNodeProcess is the whole life of a node process: listen, serve, exit
// when the coordinator shuts us down (or we are SIGKILLed). A stale socket
// file from a killed predecessor is removed first so respawn-on-same-address
// works.
func runNodeProcess(addr string) {
	os.Remove(addr)
	lis, err := stdnet.Listen(networkFor(addr), addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-node:", err)
		os.Exit(1)
	}
	opts := NodeOptions{DialRetries: 40, DialBackoff: 5 * time.Millisecond}
	if v := os.Getenv(nodeEnvTimeout); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			opts.RoundTimeout = d
		}
	}
	node := NewNode(opts)
	node.Serve(lis)
	node.Close()
}

// spawnNodeProc starts one node as a separate OS process.
func spawnNodeProc(t *testing.T, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), nodeEnvAddr+"="+addr, nodeEnvTimeout+"=3s")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn node %s: %v", addr, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

func procCoordOpts() CoordOptions {
	return CoordOptions{RoundTimeout: 3 * time.Second, DialRetries: 40, DialBackoff: 10 * time.Millisecond}
}

// procTrainResult is what one multi-process training run reports.
type procTrainResult struct {
	res      *gnn.TrainResult
	killedAt int // -1 if the run was never disturbed
}

// runProcTraining trains a GCN over a fleet of real node processes. With
// kill=false it is the undisturbed oracle (repartitioning at repartAt like
// every other run). With kill=true it SIGKILLs node dead at the repartAt
// boundary, verifies the epoch fails with a typed transport error, then
// respawns the process, recovers the fleet (reconnect, Setup on the
// partition in force, checkpoint resume), applies the recovery repartition,
// and resumes to completion.
func runProcTraining(t *testing.T, d *datasets.Dataset, part, part2 []int, repartAt, dead int,
	cfg dist.Config, tcfg gnn.TrainConfig, kill bool) procTrainResult {
	t.Helper()
	nparts := 1
	for _, p := range part {
		if p >= nparts {
			nparts = p + 1
		}
	}

	dir := shortTempDir(t)
	addrs := make([]string, nparts)
	cmds := make([]*exec.Cmd, nparts)
	for p := 0; p < nparts; p++ {
		addrs[p] = filepath.Join(dir, fmt.Sprintf("n%d.sock", p))
		cmds[p] = spawnNodeProc(t, addrs[p])
	}
	coord := NewCoordinator(addrs, procCoordOpts())
	if err := coord.Connect(); err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(coord.Close)
	if err := coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatalf("setup: %v", err)
	}

	model := gnn.NewGCN(coord, []int{d.FeatureDim(), 8, d.NumClasses}, rand.New(rand.NewSource(99)))
	trainer := gnn.NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, tcfg)
	ckPath := filepath.Join(dir, "train.ck")
	killedAt := -1

	for !trainer.Done() {
		e := trainer.NextEpoch()
		if e == repartAt {
			// Boundary checkpoint taken before anything else: the recovery
			// path below rewinds to exactly this state.
			if err := coord.SaveCheckpoint(ckPath, model, trainer); err != nil {
				t.Fatalf("save checkpoint: %v", err)
			}

			if kill {
				// Kill -9 one partition's process mid-training. The epoch in
				// flight must fail with a typed error — never hang.
				killedAt = e
				cmds[dead].Process.Kill()
				cmds[dead].Wait()
				if _, err := trainer.RunEpoch(); err == nil {
					t.Fatal("epoch against a killed process succeeded")
				} else if !isTypedNetErr(err) {
					t.Fatalf("killed process surfaced untyped error: %v", err)
				}
				// Recovery: respawn on the same address, reconnect and re-setup
				// every node, rewind the whole fleet to the boundary checkpoint.
				cmds[dead] = spawnNodeProc(t, addrs[dead])
				if err := coord.Connect(); err != nil {
					t.Fatalf("reconnect: %v", err)
				}
				if err := coord.Setup(d.Graph, coord.Part(), cfg); err != nil {
					t.Fatalf("re-setup: %v", err)
				}
				if err := coord.ResumeCheckpoint(ckPath, model, trainer); err != nil {
					t.Fatalf("resume checkpoint: %v", err)
				}
			}

			// The repartition every run performs at this boundary — in the
			// killed run it doubles as the recovery move that shifts most of
			// the dead shard onto the survivors.
			if _, err := coord.Repartition(part2); err != nil {
				t.Fatalf("repartition: %v", err)
			}
		}
		if _, err := trainer.RunEpoch(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	res, err := trainer.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	coord.Shutdown()
	return procTrainResult{res: res, killedAt: killedAt}
}

// TestProcessKillRecoverConvergence is the headline acceptance scenario: a
// 4-partition unix-socket run with one node process SIGKILLed mid-training
// must, after respawn + checkpoint restore + incremental repartition of the
// dead shard across the survivors, converge to the same TestAcc as an
// uninterrupted run. The undisturbed multi-process run is compared bit for
// bit, and so is the in-process worker.Cluster run (the simulation oracle,
// same schedule).
func TestProcessKillRecoverConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process training is not short")
	}
	const (
		nparts   = 4
		repartAt = 5
		dead     = 2
	)
	cfg := dist.Config{QuantBits: 8, ErrorFeedback: true, Seed: 17}
	tcfg := gnn.TrainConfig{Epochs: 10, LR: 0.02}
	d, part, _ := testGraph(t, nparts)
	part2 := recoveryPartition(part, dead, nparts)

	// Oracle 1: the in-process simulation runtime, same training schedule.
	cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
	defer cl.Close()
	clModel := gnn.NewGCN(cl, []int{d.FeatureDim(), 8, d.NumClasses}, rand.New(rand.NewSource(99)))
	clTrainer := gnn.NewTrainer(clModel, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, tcfg)
	for !clTrainer.Done() {
		if clTrainer.NextEpoch() == repartAt {
			if _, err := cl.Repartition(part2); err != nil {
				t.Fatalf("cluster repartition: %v", err)
			}
		}
		if _, err := clTrainer.RunEpoch(); err != nil {
			t.Fatalf("cluster epoch: %v", err)
		}
	}
	clRes, err := clTrainer.Finish()
	if err != nil {
		t.Fatalf("cluster finish: %v", err)
	}

	// Oracle 2: undisturbed multi-process run.
	ref := runProcTraining(t, d, part, part2, repartAt, dead, cfg, tcfg, false)
	// Headline: same run with node 2's process killed at the boundary.
	got := runProcTraining(t, d, part, part2, repartAt, dead, cfg, tcfg, true)

	if got.killedAt != repartAt {
		t.Fatalf("kill never happened (killedAt=%d)", got.killedAt)
	}
	if len(got.res.Epochs) != len(ref.res.Epochs) {
		t.Fatalf("recovered run has %d epochs, undisturbed %d", len(got.res.Epochs), len(ref.res.Epochs))
	}
	for e := range ref.res.Epochs {
		if got.res.Epochs[e] != ref.res.Epochs[e] {
			t.Fatalf("epoch %d: recovered %+v, undisturbed %+v", e, got.res.Epochs[e], ref.res.Epochs[e])
		}
	}
	if got.res.TestAcc != ref.res.TestAcc {
		t.Fatalf("recovered TestAcc=%v, undisturbed TestAcc=%v", got.res.TestAcc, ref.res.TestAcc)
	}
	// The simulation oracle ships identical wire bytes and, like every node,
	// sums its inbound batches in ascending sender order.
	if got.res.TestAcc != clRes.TestAcc {
		t.Fatalf("recovered TestAcc=%v, in-process oracle TestAcc=%v", got.res.TestAcc, clRes.TestAcc)
	}
	t.Logf("TestAcc %.4f after kill+recover (undisturbed %.4f, in-process %.4f)",
		got.res.TestAcc, ref.res.TestAcc, clRes.TestAcc)
}

// TestTwoProcessSmoke is the make-verify smoke: a minimal 2-process fleet
// does a full setup + one epoch + shutdown over unix sockets. Fast enough
// for every CI run; the convergence test above is the deep version.
func TestTwoProcessSmoke(t *testing.T) {
	const nparts = 2
	d, part, _ := testGraph(t, nparts)
	dir := shortTempDir(t)
	addrs := make([]string, nparts)
	for p := 0; p < nparts; p++ {
		addrs[p] = filepath.Join(dir, fmt.Sprintf("n%d.sock", p))
		spawnNodeProc(t, addrs[p])
	}
	coord := NewCoordinator(addrs, procCoordOpts())
	if err := coord.Connect(); err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(coord.Close)
	if err := coord.Setup(d.Graph, part, dist.Config{QuantBits: 8, Seed: 1}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	h := randMat(d.NumNodes(), 4, 61)
	coord.StartEpoch(0)
	out, err := coord.Round(h, false)
	if err != nil {
		t.Fatalf("round: %v", err)
	}
	if out.Rows != d.NumNodes() || out.Cols != 4 {
		t.Fatalf("round output %dx%d, want %dx4", out.Rows, out.Cols, d.NumNodes())
	}
	coord.Shutdown()
}
