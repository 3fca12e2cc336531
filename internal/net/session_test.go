package net

import (
	"fmt"
	"math"
	"math/rand"
	stdnet "net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// testCluster is an in-process multi-node deployment over unix sockets: one
// Node per partition, each serving on its own socket, plus a connected
// Coordinator. It exercises the full socket transport (framing, mesh
// assembly, control protocol) inside one test binary, which is what lets
// `go test -cover` see the server paths.
type testCluster struct {
	dir   string
	addrs []string
	nodes []*Node
	coord *Coordinator
}

// shortTempDir returns a temp dir short enough for unix socket paths (the
// sockaddr_un limit is ~108 bytes; t.TempDir can exceed it).
func shortTempDir(t testing.TB) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "scgnn")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// startNode launches one node serving on addr and returns it.
func startNode(t testing.TB, addr string, opts NodeOptions) *Node {
	t.Helper()
	lis, err := stdnet.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(opts)
	go node.Serve(lis)
	t.Cleanup(node.Close)
	return node
}

// startCluster spins up nparts nodes and a connected coordinator.
func startCluster(t testing.TB, nparts int, nodeOpts NodeOptions, coordOpts CoordOptions) *testCluster {
	t.Helper()
	tc := &testCluster{dir: shortTempDir(t)}
	for p := 0; p < nparts; p++ {
		addr := filepath.Join(tc.dir, fmt.Sprintf("n%d.sock", p))
		tc.addrs = append(tc.addrs, addr)
		tc.nodes = append(tc.nodes, startNode(t, addr, nodeOpts))
	}
	tc.coord = NewCoordinator(tc.addrs, coordOpts)
	if err := tc.coord.Connect(); err != nil {
		t.Fatalf("coordinator connect: %v", err)
	}
	t.Cleanup(tc.coord.Close)
	return tc
}

// respawnNode replaces a killed node on the same address with a fresh one.
func (tc *testCluster) respawnNode(t *testing.T, p int, opts NodeOptions) {
	t.Helper()
	os.Remove(tc.addrs[p]) // a killed process leaves the socket file behind
	tc.nodes[p] = startNode(t, tc.addrs[p], opts)
}

// testGraph builds the standard small test dataset and two partitions.
func testGraph(t *testing.T, nparts int) (*datasets.Dataset, []int, []int) {
	t.Helper()
	d := datasets.Generate(datasets.Spec{
		Name: "w", Nodes: 150, AvgDegree: 10, Classes: 3, FeatureDim: 5, Seed: 1,
	})
	part := partition.Partition(d.Graph, nparts, partition.NodeCut, partition.Config{Seed: 2})
	part2 := partition.Partition(d.Graph, nparts, partition.NodeCut, partition.Config{Seed: 5})
	return d, part, part2
}

// randMat fills an n x m matrix with fp32-truncated uniform values, exactly
// as the worker tests do (pre-truncation keeps fp32 wire legs lossless).
func randMat(n, m int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	mat := tensor.New(n, m)
	for i := range mat.Data {
		mat.Data[i] = float64(float32(rng.Float64()*2 - 1))
	}
	return mat
}

// quickOpts are timeouts suited to in-process tests: long enough for -race
// scheduling noise, short enough that a genuine hang fails the test quickly.
func quickNodeOpts() NodeOptions {
	return NodeOptions{RoundTimeout: 5 * time.Second, DialRetries: 20, DialBackoff: 5 * time.Millisecond}
}

func quickCoordOpts() CoordOptions {
	return CoordOptions{RoundTimeout: 5 * time.Second, DialRetries: 20, DialBackoff: 5 * time.Millisecond}
}

// TestCoordClusterEquivalenceMatrix is the cross-runtime equivalence lock:
// the multi-node socket deployment must agree with the in-process
// worker.Cluster on every method combination, through a mid-training
// Repartition — aggregate values bit for bit (nodes and cluster workers run
// the one round body, summing inbound batches in sender order) and the whole
// per-epoch CaptureEpoch snapshot, traffic and processing counters, exactly. A semantic lane grouped by Jaccard similarity
// holds the fleet to the similarity it was given.
func TestCoordClusterEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node matrix is not short")
	}
	const nparts = 3
	d, part, part2 := testGraph(t, nparts)
	h := randMat(d.NumNodes(), 5, 77)
	g := randMat(d.NumNodes(), 5, 78)

	lanes := exchange.MethodMatrix(9)
	lanes["semantic+jaccard"] = dist.Config{Semantic: true, Seed: 9, Plan: core.PlanConfig{
		Grouping: core.GroupingConfig{K: 3, Seed: 9, Sim: core.JaccardSimilarity{}}}}
	for name, cfg := range lanes {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
			if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
				t.Fatalf("setup: %v", err)
			}

			for epoch := 0; epoch < 5; epoch++ {
				if epoch == 3 {
					wantDirty, err := cl.Repartition(part2)
					if err != nil {
						t.Fatalf("cluster repartition: %v", err)
					}
					gotDirty, err := tc.coord.Repartition(part2)
					if err != nil {
						t.Fatalf("coordinator repartition: %v", err)
					}
					if len(gotDirty) != len(wantDirty) {
						t.Fatalf("dirty sets: coord %v, cluster %v", gotDirty, wantDirty)
					}
					for i := range gotDirty {
						if gotDirty[i] != wantDirty[i] {
							t.Fatalf("dirty sets: coord %v, cluster %v", gotDirty, wantDirty)
						}
					}
				}
				cl.ResetTraffic()
				cl.StartEpoch(epoch)
				tc.coord.StartEpoch(epoch)
				for _, bwd := range []bool{false, true} {
					in := h
					if bwd {
						in = g
					}
					var want *tensor.Matrix
					if bwd {
						want = cl.Backward(in)
					} else {
						want = cl.Forward(in)
					}
					got, err := tc.coord.Round(in, bwd)
					if err != nil {
						t.Fatalf("epoch %d bwd=%v: %v", epoch, bwd, err)
					}
					if !got.Equal(want, 0) {
						t.Fatalf("epoch %d bwd=%v: socket aggregate diverged from cluster", epoch, bwd)
					}
				}
				if cs, ns := cl.CaptureEpoch(), tc.coord.CaptureEpoch(); cs != ns {
					t.Fatalf("epoch %d: socket snapshot %+v vs cluster %+v", epoch, ns, cs)
				}
			}
			tc.coord.Shutdown()
		})
	}
}

// TestCoordEvalEpoch covers the measurement-only marker: under delayed
// transmission an eval pass must bypass the replay cache on every node, so
// socket and in-process results agree on a fresh pass after stale epochs.
func TestCoordEvalEpoch(t *testing.T) {
	const nparts = 3
	d, part, _ := testGraph(t, nparts)
	h := randMat(d.NumNodes(), 5, 21)
	cfg := dist.Config{DelayPeriod: 3, Seed: 4}

	cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
	defer cl.Close()
	tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
	if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 4; epoch++ {
		cl.StartEpoch(epoch)
		tc.coord.StartEpoch(epoch)
		want := cl.Forward(h)
		got, err := tc.coord.Round(h, false)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("epoch %d diverged", epoch)
		}
	}
	cl.StartEvalEpoch(4)
	tc.coord.StartEvalEpoch(4)
	want := cl.Forward(h)
	got, err := tc.coord.Round(h, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatal("eval pass diverged (delay cache not bypassed)")
	}
	tc.coord.Shutdown()
}

// graphFromEdges is a tiny convenience for hand-built graphs in this file.
func graphFromEdges(n int, pairs [][2]int32) *graph.Graph {
	edges := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = graph.Edge{U: p[0], V: p[1]}
	}
	return graph.NewUndirected(n, edges)
}

// TestFleetSteadyStateAllocs is the fleet's allocation gate: once every
// connection's buffers have seen a round of each width, an epoch marker and
// AggregateInto rounds — coordinator and all four nodes, which share this
// process — allocate nothing: every malloc of seven epochs counts, on a
// vanilla, a semantic and a q8+EF fleet (its residual records included). Each epoch
// is a [32, 32, 16] GCN's: a 32-wide forward round, then the output layer's
// 16-wide forward and backward rounds, since it multiplies first. The gate
// holds again after a Repartition that gives every node other rows: the
// buffers a node sized for its old shard are resized once, then retained.
func TestFleetSteadyStateAllocs(t *testing.T) {
	const (
		nparts = 4
		epochs = 7
	)
	// One P, as testing.AllocsPerRun measures: with more, the runtime
	// allocates for the goroutine descriptors and threads it starts on idle
	// Ps, which are not the fleet's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d, part, part2 := testGraph(t, nparts)
	n := d.NumNodes()
	for p := 0; p < nparts; p++ {
		same := true
		for u := range part {
			same = same && (part[u] == p) == (part2[u] == p)
		}
		if same {
			t.Fatalf("the repartition leaves node %d its rows", p)
		}
	}
	h32, dst32 := randMat(n, 32, 61), tensor.New(n, 32)
	h16, dst16 := randMat(n, 16, 62), tensor.New(n, 16)
	for name, cfg := range map[string]dist.Config{
		"vanilla":   {Seed: 3},
		"semantic":  {Semantic: true, Seed: 3},
		"quant8+ef": {QuantBits: 8, ErrorFeedback: true, Seed: 3},
	} {
		t.Run(name, func(t *testing.T) {
			tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
			if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
				t.Fatalf("setup: %v", err)
			}
			runEpoch := func(e int) {
				tc.coord.StartEpoch(e)
				for _, r := range []struct {
					dst, h   *tensor.Matrix
					backward bool
				}{{dst32, h32, false}, {dst16, h16, false}, {dst16, h16, true}} {
					if err := tc.coord.AggregateInto(r.dst, r.h, r.backward); err != nil {
						t.Fatal(err)
					}
				}
			}
			// measure warms up for two epochs from epoch e, then gates the
			// next ones.
			measure := func(e int, when string) {
				runEpoch(e)
				runEpoch(e + 1)
				primeRuntime()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for k := e + 2; k < e+2+epochs; k++ {
					runEpoch(k)
				}
				runtime.ReadMemStats(&after)
				if n := after.Mallocs - before.Mallocs; n != 0 {
					t.Fatalf("%s: %d steady epochs allocate %d times (%d B)", when, epochs, n, after.TotalAlloc-before.TotalAlloc)
				}
			}
			measure(0, "first partition")
			if _, err := tc.coord.Repartition(part2); err != nil {
				t.Fatal(err)
			}
			measure(2+epochs, "after the repartition")
			tc.coord.Shutdown()
		})
	}
}

// primeRuntime grows two of the runtime's own tables past what a fleet's
// epoch needs, its free goroutine descriptors and its timer heap (every
// connection deadline is a timer), so that their growth, which hangs on how
// goroutine exits and deadline resets happen to interleave, is not counted
// as the fleet's.
func primeRuntime() {
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		t := time.AfterFunc(time.Hour, func() {})
		go func() {
			defer wg.Done()
			t.Stop()
		}()
	}
	wg.Wait()
}

// TestAggregateIntoAndRoundAlternate drives one fleet through both forms of
// the round — AggregateInto into a retained matrix full of stale values, and
// Round into a fresh one — in turn, forward and backward through each, and
// holds every result to the in-process cluster bit for bit.
func TestAggregateIntoAndRoundAlternate(t *testing.T) {
	const nparts = 4
	d, part, _ := testGraph(t, nparts)
	h := randMat(d.NumNodes(), 6, 71)
	g := randMat(d.NumNodes(), 6, 72)
	for name, cfg := range map[string]dist.Config{
		"quant8+ef": {QuantBits: 8, ErrorFeedback: true, Seed: 9},
		"semantic":  {Semantic: true, Seed: 9},
	} {
		t.Run(name, func(t *testing.T) {
			cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
			if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
				t.Fatalf("setup: %v", err)
			}
			dst := tensor.New(d.NumNodes(), 6)
			for round := 0; round < 8; round++ {
				bwd := round%2 == 1
				in, want := h, cl.Forward
				if bwd {
					in, want = g, cl.Backward
				} else {
					cl.StartEpoch(round / 2)
					tc.coord.StartEpoch(round / 2)
				}
				got := dst
				var err error
				// Rounds 0, 3, 4, 7 go through AggregateInto: each form
				// runs both directions and follows the other.
				if round%4 == 0 || round%4 == 3 {
					dst.Fill(math.NaN())
					err = tc.coord.AggregateInto(dst, in, bwd)
				} else {
					got, err = tc.coord.Round(in, bwd)
				}
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if !got.Equal(want(in), 0) {
					t.Fatalf("round %d (backward=%v): fleet diverged from cluster", round, bwd)
				}
			}
			tc.coord.Shutdown()
		})
	}
}

// TestRoundRejectsMisshapedMatrices: a matrix the fleet cannot aggregate —
// no columns, the wrong row count, a destination of another shape — is the
// caller's error, returned before any frame is written. (A zero-column Round
// used to reach the nodes, whose decoders dropped the control connection over
// it: ErrPeerDown from every node and a dead fleet.) The same fleet then runs
// a good round.
func TestRoundRejectsMisshapedMatrices(t *testing.T) {
	const nparts = 3
	d, part, _ := testGraph(t, nparts)
	n := d.NumNodes()
	cfg := dist.Config{QuantBits: 8, ErrorFeedback: true, Seed: 5}
	cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
	defer cl.Close()
	tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
	if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatalf("setup: %v", err)
	}
	cl.StartEpoch(0)
	tc.coord.StartEpoch(0)
	for name, shape := range map[string]struct{ dst, h *tensor.Matrix }{
		"no columns":     {tensor.New(n, 0), tensor.New(n, 0)},
		"short h":        {tensor.New(n-1, 4), tensor.New(n-1, 4)},
		"short dst":      {tensor.New(n-1, 4), tensor.New(n, 4)},
		"dst other cols": {tensor.New(n, 3), tensor.New(n, 4)},
	} {
		err := tc.coord.AggregateInto(shape.dst, shape.h, false)
		if err == nil || !strings.Contains(err.Error(), "round shapes") || isTypedNetErr(err) {
			t.Fatalf("%s: AggregateInto err = %v, want the shape error", name, err)
		}
	}
	if _, err := tc.coord.Round(tensor.New(n, 0), true); err == nil || isTypedNetErr(err) {
		t.Fatalf("Round of a zero-column matrix: err = %v, want the shape error", err)
	}
	h := randMat(n, 4, 81)
	got, err := tc.coord.Round(h, false)
	if err != nil {
		t.Fatalf("good round after the rejected ones: %v", err)
	}
	if !got.Equal(cl.Forward(h), 0) {
		t.Fatal("good round after the rejected ones diverged from cluster")
	}
	tc.coord.Shutdown()
}

// TestFleetHoldsShards: after Setup and one epoch, a node holds its shard and
// not the job. Its round matrices have one row per owned node; nothing
// reachable from its peer is a DBG (plans keep the counts, not the
// adjacency); and no connection on either end keeps a buffer the size of the
// Setup frame, which carried the whole edge list.
func TestFleetHoldsShards(t *testing.T) {
	const nparts, cols = 3, 5
	d, part, _ := testGraph(t, nparts)
	tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
	if err := tc.coord.Setup(d.Graph, part, dist.Config{Semantic: true, Seed: 3}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	tc.coord.StartEpoch(0)
	dst := tensor.New(d.NumNodes(), cols)
	for _, bwd := range []bool{false, true} {
		if err := tc.coord.AggregateInto(dst, randMat(d.NumNodes(), cols, 5), bwd); err != nil {
			t.Fatal(err)
		}
	}
	setupLen := len(tc.coord.setupShared())
	small := func(who string, fc *framed) {
		if cap(fc.w.b) >= setupLen || cap(fc.rbuf) >= setupLen {
			t.Errorf("%s keeps %d B written, %d B read; the Setup frame was %d B", who, cap(fc.w.b), cap(fc.rbuf), setupLen)
		}
	}
	for i, fc := range tc.coord.conns {
		small(fmt.Sprintf("coordinator's connection to node %d", i), fc)
	}
	dbg := reflect.TypeOf(graph.DBG{})
	for p, n := range tc.nodes {
		// The node's goroutines hand everything they wrote to the round loop,
		// which runs under ctlMu.
		n.ctlMu.Lock()
		n.mu.Lock()
		own := len(n.peer.Own())
		for width, bufs := range n.bufs {
			if bufs.h.Rows != own || bufs.out.Rows != own {
				t.Errorf("node %d: width-%d round matrices have %d and %d rows, it owns %d", p, width, bufs.h.Rows, bufs.out.Rows, own)
			}
		}
		if len(n.bufs) == 0 {
			t.Errorf("node %d holds no round matrices after an epoch", p)
		}
		if reaches(reflect.ValueOf(n.peer), dbg, map[uintptr]bool{}) {
			t.Errorf("node %d: a graph.DBG is reachable from its peer", p)
		}
		for fc := range n.conns {
			small(fmt.Sprintf("node %d's connection", p), fc)
		}
		n.mu.Unlock()
		n.ctlMu.Unlock()
	}
	tc.coord.Shutdown()
}

// reaches reports whether a value of type target is reachable from v through
// pointers, interfaces, fields, elements and map entries.
func reaches(v reflect.Value, target reflect.Type, seen map[uintptr]bool) bool {
	if v.Type() == target {
		return true
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Map:
		if v.IsNil() || seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		if v.Kind() == reflect.Pointer {
			return reaches(v.Elem(), target, seen)
		}
		for it := v.MapRange(); it.Next(); {
			if reaches(it.Key(), target, seen) || reaches(it.Value(), target, seen) {
				return true
			}
		}
	case reflect.Interface:
		return !v.IsNil() && reaches(v.Elem(), target, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if reaches(v.Field(i), target, seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Map, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				if reaches(v.Index(i), target, seen) {
					return true
				}
			}
		}
	}
	return false
}
