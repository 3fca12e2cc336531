package dist

import (
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
)

// equivalenceConfigs covers all five exchange methods plus the Fig. 12(b)
// composition cells, so the sequential/parallel bit-equality guarantee is
// exercised through every stateful compression path (per-pair RNG streams,
// adaptive bit choice, delay slots, error-feedback residuals). It is the
// exported MethodMatrix fixture — the same 13 combinations the worker
// runtime's oracle equivalence matrix and the ablation harness run.
func equivalenceConfigs(seed int64) map[string]Config {
	return exchange.MethodMatrix(seed)
}

func bitEqual(t *testing.T, name string, epoch int, phase string, a, b *tensor.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s epoch %d %s: shape (%d,%d) vs (%d,%d)", name, epoch, phase, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s epoch %d %s: value %d differs: %v vs %v",
				name, epoch, phase, i, a.Data[i], b.Data[i])
		}
	}
}

// TestSequentialParallelEquivalence is the Workers-invariance guarantee: for a
// fixed seed, a round fanned over goroutines produces bit-identical outputs,
// bytes, message counts and processing counters to the same round run on the
// caller's goroutine, for every method and composition, across epochs (so
// delay replays and error-feedback residual state line up too).
func TestSequentialParallelEquivalence(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	h := randMat(d.NumNodes(), 5, 77)
	g := randMat(d.NumNodes(), 5, 78)

	for name, cfg := range equivalenceConfigs(9) {
		// Workers=2 leaves two goroutines sharing three tasks, Workers=16 is
		// capped to one goroutine per partition.
		seqCfg, parCfg, capCfg := cfg, cfg, cfg
		seqCfg.Workers = 1
		parCfg.Workers = 2
		capCfg.Workers = 16
		seq := NewEngine(d.Graph, part, nparts, seqCfg)
		par := NewEngine(d.Graph, part, nparts, parCfg)
		capped := NewEngine(d.Graph, part, nparts, capCfg)
		for epoch := 0; epoch < 5; epoch++ {
			seq.StartEpoch(epoch)
			par.StartEpoch(epoch)
			capped.StartEpoch(epoch)
			fSeq := seq.Forward(h)
			bitEqual(t, name, epoch, "forward/2", fSeq, par.Forward(h))
			bitEqual(t, name, epoch, "forward/16", fSeq, capped.Forward(h))
			bSeq := seq.Backward(g)
			bitEqual(t, name, epoch, "backward/2", bSeq, par.Backward(g))
			bitEqual(t, name, epoch, "backward/16", bSeq, capped.Backward(g))
			ss, ps, cs := seq.CaptureEpoch(), par.CaptureEpoch(), capped.CaptureEpoch()
			if ss != ps {
				t.Fatalf("%s epoch %d: snapshots differ:\nseq %+v\npar %+v", name, epoch, ss, ps)
			}
			if ss != cs {
				t.Fatalf("%s epoch %d: snapshots differ:\nseq %+v\nworkers 16 %+v", name, epoch, ss, cs)
			}
		}
	}
}

// TestRunParallelEquivalence checks the guarantee end to end: a full
// training run (model init, Adam, early stopping, final eval) records
// identical per-epoch measurements under both schedules.
func TestRunParallelEquivalence(t *testing.T) {
	d, part := smallSetup(t)
	cfg := Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 3}},
		QuantBits: 8, ErrorFeedback: true, Seed: 3}
	run := RunConfig{Epochs: 12, Seed: 5}

	seqCfg, parCfg := cfg, cfg
	seqCfg.Workers = 1
	parCfg.Workers = 4
	a := mustRun(t, d, part, 3, seqCfg, run)
	b := mustRun(t, d, part, 3, parCfg, run)
	if a.TestAcc != b.TestAcc {
		t.Fatalf("test accuracy differs: %v vs %v", a.TestAcc, b.TestAcc)
	}
	if len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("epoch counts differ: %d vs %d", len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		ra, rb := a.Epochs[i], b.Epochs[i]
		if ra != rb {
			t.Fatalf("epoch %d records differ:\nseq %+v\npar %+v", i, ra, rb)
		}
	}
}

// TestWorkersDefaultMatchesSequential pins the Workers zero value (use
// GOMAXPROCS) to the same results as the explicit schedules.
func TestWorkersDefaultMatchesSequential(t *testing.T) {
	d, part := smallSetup(t)
	h := randMat(d.NumNodes(), 4, 11)
	cfg := Config{SampleRate: 0.5, SampleNodes: true, Seed: 6}
	seqCfg := cfg
	seqCfg.Workers = 1
	def := NewEngine(d.Graph, part, 3, cfg)
	seq := NewEngine(d.Graph, part, 3, seqCfg)
	def.StartEpoch(0)
	seq.StartEpoch(0)
	bitEqual(t, "default-workers", 0, "forward", seq.Forward(h), def.Forward(h))
}

// collisionSetup builds the minimal topology on which the old group-coin key
// scheme (idx*4096 + groupIndex) aliases a real boundary-node id: partition
// pair 0→1 (idx = 0*2+1 = 1 under nparts=2... the old scheme keyed
// coins off the *plan* index) carries one natural O2M group (key 1·4096+0 =
// 4096 in the old scheme) alongside an O2O residual whose sender is node
// 4096. Under node sampling both transfer units then shared one memoized
// coin: the pair's per-round message count could only ever be 0 or 2,
// never 1.
func collisionSetup(t *testing.T) (*graph.Graph, []int) {
	t.Helper()
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, // O2M group: node 0 → {1, 2}
		{U: 4096, V: 4097}, // O2O residual: node 4096 → 4097
	}
	g := graph.NewUndirected(4098, edges)
	part := make([]int, 4098)
	part[1], part[2], part[4097] = 1, 1, 1
	return g, part
}

// TestGroupCoinKeySeparation is the regression test for the sampler-key
// collision: with the dedicated negative key space, the group's coin and
// node 4096's coin are independent, so across many rounds the pair must
// sometimes ship exactly one of its two transfer units. On the old shared
// key the observed count was always 0 or 2 — this test fails there.
func TestGroupCoinKeySeparation(t *testing.T) {
	g, part := collisionSetup(t)
	cfg := Config{
		Semantic:    true,
		Plan:        core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}},
		SampleRate:  0.5,
		SampleNodes: true,
		Seed:        42,
	}
	eng := NewEngine(g, part, 2, cfg)

	plans, err := core.BuildAllPlans(g, part, 2, cfg.Plan)
	if err != nil {
		t.Fatal(err)
	}
	var fwd *core.PairPlan
	for _, p := range plans {
		if p.SrcPart == 0 && p.DstPart == 1 {
			fwd = p
		}
	}
	if fwd == nil || len(fwd.Groups) != 1 || len(fwd.O2O) != 1 {
		t.Fatalf("setup mismatch: want 1 group + 1 O2O on pair 0→1, got %+v", fwd)
	}
	if fwd.O2O[0].Src != 4096 {
		t.Fatalf("setup mismatch: O2O sender = %d, want 4096", fwd.O2O[0].Src)
	}

	h := randMat(g.NumNodes(), 3, 5)
	sawSplit := false
	for epoch := 0; epoch < 400 && !sawSplit; epoch++ {
		eng.StartEpoch(epoch)
		eng.Forward(h)
		if n := eng.c.Fabric().LinkMessages(0, 1); n == 1 {
			sawSplit = true
		}
	}
	if !sawSplit {
		t.Fatalf("group coin and node-4096 coin always agreed over 400 rounds: keys still collide")
	}
}

// TestStartEvalEpochBypassesDelay checks the engine half of the final-eval
// fix: an eval epoch under delayed transmission must compute fresh remote
// contributions (matching a vanilla engine on the same input), not replay
// the cached matrix from the last training epoch, and must not pollute the
// slots for anyone who keeps training.
func TestStartEvalEpochBypassesDelay(t *testing.T) {
	d, part := smallSetup(t)
	h0 := randMat(d.NumNodes(), 4, 21)
	h1 := randMat(d.NumNodes(), 4, 22)

	delayed := NewEngine(d.Graph, part, 3, Config{DelayPeriod: 2, Seed: 1})
	vanilla := NewEngine(d.Graph, part, 3, Config{Seed: 1})

	delayed.StartEpoch(0) // fresh epoch: caches h0's remote contribution
	delayed.Forward(h0)

	// Epoch 1 is a replay epoch (1 % 2 != 0): a training pass would reuse
	// h0's stale remote rows. The eval pass must see h1 everywhere.
	delayed.StartEvalEpoch(1)
	got := delayed.Forward(h1)
	vanilla.StartEpoch(1)
	want := vanilla.Forward(h1)
	bitEqual(t, "eval-under-delay", 1, "forward", want, got)

	// Resumed training at epoch 1 still replays the *h0* slot — the eval pass
	// neither consumed nor overwrote it. The control engine runs the same
	// schedule without the interleaved eval.
	control := NewEngine(d.Graph, part, 3, Config{DelayPeriod: 2, Seed: 1})
	control.StartEpoch(0)
	control.Forward(h0)
	control.StartEpoch(1)
	wantReplay := control.Forward(h1)

	delayed.StartEpoch(1)
	replay := delayed.Forward(h1)
	if got := delayed.CaptureEpoch().TotalBytes; got != 0 {
		t.Fatalf("replay epoch transmitted %d bytes", got)
	}
	bitEqual(t, "post-eval-replay", 1, "forward", wantReplay, replay)
}

// TestFinalEvalUsesActualNextEpoch checks the runner half of the fix: with
// early stopping and delayed transmission, the final test accuracy must not
// depend on whether the *configured* epoch budget happens to land on a
// transmit epoch. Both runs early-stop identically (same seed, same
// patience), so their models are identical; before the fix, TestAcc was
// computed at StartEpoch(Epochs) and so flipped between fresh and stale
// exchanges as Epochs changed parity.
func TestFinalEvalUsesActualNextEpoch(t *testing.T) {
	d := datasets.PubMedSim(3)
	part := partition.Partition(d.Graph, 2, partition.NodeCut, partition.Config{Seed: 4})
	base := RunConfig{Patience: 5, Seed: 2}
	cfg := Config{DelayPeriod: 3, Seed: 2}

	// Four budgets covering every phase of the delay period. All four runs
	// early-stop at the same epoch with identical weights, so the final
	// accuracy must be identical too. (The parameters are chosen so the
	// stale-vs-fresh eval actually flips test predictions: before the fix
	// these budgets yielded two different accuracies.)
	var stop, epochs0 int
	var acc0 float64
	for i, budget := range []int{100, 101, 102, 103} {
		run := base
		run.Epochs = budget
		r := mustRun(t, d, part, 2, cfg, run)
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
