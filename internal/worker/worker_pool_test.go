package worker

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/exchange"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
)

func benchSetup() (*datasets.Dataset, []int) {
	d := datasets.PubMedSim(1)
	part := partition.Partition(d.Graph, 4, partition.NodeCut, partition.Config{Seed: 1})
	return d, part
}

// TestClusterSteadyStateAllocs: after warm-up, a full aggregate round must not
// allocate once — encode buffers (reserved at a frame's worst case), frame
// slots, payload scratch, the sender memo, the error-feedback record arenas
// and traffic shards are all retained across rounds, and the fork-join's
// goroutines start on func values bound at construction. The rounds are a [32, 32, 16] GCN's
// epoch: layer 0 aggregates its 32 features, and the output layer multiplies
// first, so its forward and backward rounds are 16 wide — round slots of
// different widths, as production runs them.
func TestClusterSteadyStateAllocs(t *testing.T) {
	// One P, as testing.AllocsPerRun measures: with more, the runtime
	// allocates for the goroutine descriptors and threads it starts on idle
	// Ps, which are not the round's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d, part := setup(t, 3)
	n := d.NumNodes()
	rounds := []struct {
		h, out   *tensor.Matrix
		backward bool
	}{
		{randMat(n, 32, 21), tensor.New(n, 32), false},
		{randMat(n, 16, 22), tensor.New(n, 16), false},
		{randMat(n, 16, 23), tensor.New(n, 16), true},
	}
	plan := core.PlanConfig{Grouping: core.GroupingConfig{Seed: 5}}
	cases := []struct {
		name string
		cfg  exchange.Config
	}{
		{"vanilla", exchange.Config{}},
		{"semantic", exchange.Config{Semantic: true, Plan: plan}},
		{"quant8", exchange.Config{QuantBits: 8}},
		{"quant4", exchange.Config{QuantBits: 4}},
		{"quant8+ef", exchange.Config{QuantBits: 8, ErrorFeedback: true}},
		{"quant4+ef", exchange.Config{QuantBits: 4, ErrorFeedback: true}},
		{"semantic+quant+ef", exchange.Config{Semantic: true, Plan: plan, QuantBits: 4, ErrorFeedback: true}},
		{"sampling", exchange.Config{SampleRate: 0.5, Seed: 7}},
		{"nsampling", exchange.Config{SampleRate: 0.5, SampleNodes: true, Seed: 7}},
		{"aquant", exchange.Config{QuantBits: 8, AdaptiveQuant: true}},
		{"sampling+quant8+ef", exchange.Config{SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 7}},
		{"aquant+sampling", exchange.Config{QuantBits: 8, AdaptiveQuant: true, SampleRate: 0.5, Seed: 7}},
		{"delay3", exchange.Config{DelayPeriod: 3}},
		{"semantic+nsampling", exchange.Config{Semantic: true, Plan: plan, SampleRate: 0.5, SampleNodes: true, Seed: 7}},
		{"semantic+delay", exchange.Config{Semantic: true, Plan: plan, DelayPeriod: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClusterFromConfig(d.Graph, part, 3, tc.cfg)
			defer c.Close()
			runEpoch := func(e int) {
				c.StartEpoch(e)
				for _, r := range rounds {
					if err := c.AggregateInto(r.out, r.h, r.backward); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm up so scratch buffers, batch capacities, the delay slots,
			// and (for ef) the residual stores reach steady state: four
			// epochs, in which sampling+ef's record arenas double up to the
			// residuals its dropped arcs keep apart. They cover a full delay
			// period, so both fresh and replay rounds are measured below.
			for i := 0; i < 4; i++ {
				runEpoch(i)
			}
			// Every malloc of the next ten epochs counts: a per-run
			// average would round a few away.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for e := 4; e < 14; e++ {
				runEpoch(e)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("ten steady-state epochs allocate %d times (%d B)", n, after.TotalAlloc-before.TotalAlloc)
			}
		})
	}
}

// TestClusterPersistentManyRounds drives one persistent cluster through 120
// forward/backward rounds while another goroutine hammers the traffic API
// (ResetTraffic / Snapshot / Traffic). Outputs must stay bit-identical to the
// first round's, and under -race this doubles as the pool's data-race proof.
func TestClusterPersistentManyRounds(t *testing.T) {
	d, part := setup(t, 3)
	c := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{K: 2, Seed: 6}}})
	defer c.Close()
	h := randMat(d.NumNodes(), 6, 22)
	refF := c.Forward(h)
	refB := c.Backward(h)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				c.Snapshot()
			case 1:
				c.Traffic()
			default:
				c.ResetTraffic()
			}
		}
	}()

	outF := tensor.New(d.NumNodes(), 6)
	outB := tensor.New(d.NumNodes(), 6)
	for round := 0; round < 120; round++ {
		if err := c.AggregateInto(outF, h, false); err != nil {
			t.Fatal(err)
		}
		if err := c.AggregateInto(outB, h, true); err != nil {
			t.Fatal(err)
		}
		if !outF.Equal(refF, 0) || !outB.Equal(refB, 0) {
			t.Fatalf("round %d diverged from first round", round)
		}
	}
	close(stop)
	wg.Wait()

	// The pool must still be healthy for the traffic contract: a reset
	// followed by one round reproduces a single round's byte count.
	c.ResetTraffic()
	c.Forward(h)
	bytes, msgs := c.Traffic()
	if bytes <= 0 || msgs <= 0 {
		t.Fatalf("traffic after reset+round = (%d, %d)", bytes, msgs)
	}
}

// CorruptFrame makes every later round of c deliver garbage to receiver in
// place of sender's frame (see tamperFrame). (Exported for the engine's test
// in engine_oracle_test.go.)
func CorruptFrame(c *Cluster, receiver, sender int) {
	tamperFrame(c, receiver, sender, func([]byte) []byte { return []byte{0xff, 0xee, 0xdd} })
}

// TestClusterCorruptBatchError: a corrupt inbound buffer must surface as an
// error from AggregateInto (not a process-killing panic in a worker
// goroutine), permanently poison the cluster, and panic recoverably from the
// gnn.Aggregator methods.
func TestClusterCorruptBatchError(t *testing.T) {
	d, _ := setup(t, 2)
	part := make([]int, d.NumNodes())
	for i := range part {
		part[i] = i % 2
	}
	c := NewClusterFromConfig(d.Graph, part, 2, exchange.Config{})
	defer c.Close()
	h := randMat(d.NumNodes(), 4, 23)
	out := tensor.New(d.NumNodes(), 4)
	if err := c.AggregateInto(out, h, false); err != nil {
		t.Fatal(err)
	}

	CorruptFrame(c, 0, 1)
	err := c.AggregateInto(out, h, false)
	if err == nil {
		t.Fatal("corrupt batch did not error")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Poisoned: the same error comes back without running a round.
	if err2 := c.AggregateInto(out, h, false); err2 != err {
		t.Fatalf("cluster not poisoned: %v", err2)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Forward on poisoned cluster did not panic")
			}
		}()
		c.Forward(h)
	}()
}

// TestClusterCloseSemantics: Close is idempotent and rounds after Close fail
// cleanly.
func TestClusterCloseSemantics(t *testing.T) {
	d, part := setup(t, 3)
	c := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{})
	h := randMat(d.NumNodes(), 4, 24)
	c.Forward(h)
	bytes, _ := c.Traffic()
	c.Close()
	c.Close()
	if b2, _ := c.Traffic(); b2 != bytes {
		t.Fatalf("traffic changed across Close: %d vs %d", b2, bytes)
	}
	if err := c.AggregateInto(tensor.New(d.NumNodes(), 4), h, false); err == nil {
		t.Fatal("AggregateInto after Close did not error")
	}
}

// TestClusterNoGoroutineLeak: a cluster owns no goroutine between rounds, so
// one that is dropped without Close leaks nothing — after plain rounds, delayed
// rounds (fresh and replay), a rejected round and a round that failed
// mid-exchange, the process has the goroutines it had before construction.
func TestClusterNoGoroutineLeak(t *testing.T) {
	d, part := setup(t, 3)
	h := randMat(d.NumNodes(), 4, 26)
	before := runtime.NumGoroutine()
	for _, cfg := range []exchange.Config{{}, {DelayPeriod: 2}} {
		c := NewClusterFromConfig(d.Graph, part, 3, cfg)
		for epoch := 0; epoch < 4; epoch++ {
			c.StartEpoch(epoch)
			c.Forward(h)
			c.Backward(h)
		}
		if err := c.AggregateInto(tensor.New(1, 1), h, false); err == nil {
			t.Fatal("mis-shaped round accepted")
		}
		CorruptFrame(c, 0, 1)
		if err := c.AggregateInto(tensor.New(h.Rows, h.Cols), h, false); err == nil {
			t.Fatal("corrupt frame decoded cleanly")
		}
	}
	// A goroutine that has passed its WaitGroup.Done may not have been reaped
	// yet; wait for the count, bounded.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the clusters, %d after", before, after)
	}
}

// TestClusterErrorFeedbackMatchesEngine: the worker runtime's quantized
// error-feedback path must equal the oracle's at matching bits —
// same residual keys, same unit enumeration, same round slots, same grid.
func TestClusterErrorFeedbackMatchesEngine(t *testing.T) {
	const bits = 4
	d, part := setup(t, 3)
	h := randMat(d.NumNodes(), 8, 25)
	plan := core.PlanConfig{Grouping: core.GroupingConfig{K: 2, Seed: 8}}
	for _, semantic := range []bool{false, true} {
		cfg := exchange.Config{Semantic: semantic, Plan: plan, QuantBits: bits, ErrorFeedback: true}
		c := NewClusterFromConfig(d.Graph, part, 3, cfg)
		noEF := NewClusterFromConfig(d.Graph, part, 3, exchange.Config{Semantic: semantic, Plan: plan, QuantBits: bits})
		ref := NewOracle(d.Graph, part, 3, cfg)

		var efDiverged bool
		for epoch := 0; epoch < 4; epoch++ {
			c.StartEpoch(epoch)
			noEF.StartEpoch(epoch)
			ref.StartEpoch(epoch)
			for _, backward := range []bool{false, true} {
				var got, gotNoEF, want *tensor.Matrix
				if backward {
					got, gotNoEF, want = c.Backward(h), noEF.Backward(h), ref.Backward(h)
				} else {
					got, gotNoEF, want = c.Forward(h), noEF.Forward(h), ref.Forward(h)
				}
				if !got.Equal(want, 0) {
					t.Fatalf("semantic=%v epoch %d backward=%v: cluster EF != oracle EF (maxdiff %v)",
						semantic, epoch, backward, tensor.Sub(got, want).MaxAbs())
				}
				if epoch > 0 && tensor.Sub(got, gotNoEF).MaxAbs() > 0 {
					efDiverged = true
				}
			}
		}
		if !efDiverged {
			t.Fatalf("semantic=%v: error feedback never changed the quantized aggregate", semantic)
		}
		c.Close()
		noEF.Close()
	}
}

// BenchmarkClusterRound*Into measure the allocation-free steady state of
// each wire path: a preallocated output and AggregateInto, the loop a
// training run's inner rounds actually execute.
func BenchmarkClusterRoundVanillaInto(b *testing.B) { benchInto(b, exchange.Config{}) }

func BenchmarkClusterRoundSemanticInto(b *testing.B) {
	benchInto(b, exchange.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}}})
}

func BenchmarkClusterRoundSampledInto(b *testing.B) {
	benchInto(b, exchange.Config{SampleRate: 0.5, SampleNodes: true, Seed: 7})
}

func BenchmarkClusterRoundAdaptiveInto(b *testing.B) {
	benchInto(b, exchange.Config{QuantBits: 8, AdaptiveQuant: true})
}

func BenchmarkClusterRoundQuantInto(b *testing.B) {
	for _, bits := range []int{8, 4} {
		b.Run(strconv.Itoa(bits), func(b *testing.B) { benchInto(b, exchange.Config{QuantBits: bits}) })
	}
}

// The error-feedback row leans on benchInto calling StartEpoch every
// iteration: the round slot keys the residual store, so rounds that never
// returned to slot 0 would measure a map growing without bound.
func BenchmarkClusterRoundQuantEFInto(b *testing.B) {
	benchInto(b, exchange.Config{QuantBits: 8, ErrorFeedback: true})
}

// Under sampling, dropped arcs give a sender's units residuals of their own,
// so this row's records are shared least and its memo refuses most.
func BenchmarkClusterRoundSampledQuantEFInto(b *testing.B) {
	benchInto(b, exchange.Config{SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 7})
}

func BenchmarkClusterRoundDelayInto(b *testing.B) {
	// Period 2 with a fixed epoch alternates fresh and replay rounds —
	// the steady-state mix of a delayed-transmission training run.
	benchInto(b, exchange.Config{DelayPeriod: 2})
}

func benchInto(b *testing.B, cfg exchange.Config) {
	d, part := benchSetup()
	c := NewClusterFromConfig(d.Graph, part, 4, cfg)
	defer c.Close()
	h := randMat(d.NumNodes(), 16, 1)
	out := tensor.New(d.NumNodes(), 16)
	epoch := 0
	c.StartEpoch(epoch)
	if err := c.AggregateInto(out, h, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch++
		c.StartEpoch(epoch)
		if err := c.AggregateInto(out, h, false); err != nil {
			b.Fatal(err)
		}
	}
}
