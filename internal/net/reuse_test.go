package net

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"scgnn/internal/dist"
	"scgnn/internal/exchange"
	"scgnn/internal/gnn"
	"scgnn/internal/sched"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// roundAgg is the aggregator surface every runtime offers a model, less
// gnn.RoundReuser.
type roundAgg interface {
	gnn.Aggregator
	gnn.EpochMarker
	gnn.EvalMarker
	AggregateInto(dst, h *tensor.Matrix, backward bool) error
}

// uncached hides gnn.RoundReuser from the model it serves, so layer 0 ships
// its forward round on every pass: the reference the reusing runtimes are
// held to. layer0[k] is the traffic of pass k's first round, layer 0's
// forward round (zero on a delayed replay); the eval pass is the last.
type uncached struct {
	inner   roundAgg
	traffic func() int64
	round   int
	layer0  []int64
}

func (u *uncached) Forward(h *tensor.Matrix) *tensor.Matrix  { return u.inner.Forward(h) }
func (u *uncached) Backward(g *tensor.Matrix) *tensor.Matrix { return u.inner.Backward(g) }
func (u *uncached) StartEpoch(epoch int)                     { u.round = 0; u.inner.StartEpoch(epoch) }
func (u *uncached) StartEvalEpoch(epoch int)                 { u.round = 0; u.inner.StartEvalEpoch(epoch) }

func (u *uncached) AggregateInto(dst, h *tensor.Matrix, backward bool) error {
	before := u.traffic()
	err := u.inner.AggregateInto(dst, h, backward)
	if u.round == 0 {
		u.layer0 = append(u.layer0, u.traffic()-before)
	}
	u.round++
	return err
}

// reproducibleLanes are the lanes on which no pair draws coins or carries
// residuals once every pair sits on its base setting: exact, semantic,
// fixed-width and adaptive quantisation, and delay.
var reproducibleLanes = map[string]bool{
	"vanilla": true, "quant8": true, "aquant": true, "delay3": true,
	"semantic": true, "semantic+quant": true, "semantic+delay": true,
	"sched(delay3)": true,
}

// TestReuseMatchesUncached: a GCN and a SAGE model trained on a cluster and a
// socket fleet, each letting layer 0 keep its Agg(X), reproduce
// the run that ships the round every epoch (an uncached cluster) on every
// lane of the 13-combo matrix and on a scheduled delay lane — every loss and
// the final eval pass's logits bit for bit, through a Repartition at an epoch
// that does not transmit under delay3. The scheduled lane reaches its base
// rung on such an epoch too, whose round replays a slot filled on a coined
// rung: neither replay may be kept past the next transmitting epoch.
//
// Bytes follow the policy (exchange.ReusePolicy): a pass on a reproducible
// lane skips layer 0's round, shipping the uncached pass's bytes less its
// layer-0 round, when the layer holds an Agg(X) keyed under the current
// generation. A pass that runs the round keys it when it transmits fresh;
// a repartition, a rung change, an unreproducible pass and the forced-fresh
// eval pass under delay drop the key. On the other lanes the bytes are the
// uncached run's.
func TestReuseMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node matrix is not short")
	}
	const nparts, epochs, repartAt = 3, 13, 4
	d, part, part2 := testGraph(t, nparts)
	dims := []int{d.FeatureDim(), 8, d.NumClasses} // layer 0 aggregates first
	if gnn.MultipliesFirst(0, dims[0], dims[1]) {
		t.Fatalf("dims %v: layer 0 multiplies first", dims)
	}
	type runtime struct {
		name       string
		agg        gnn.Aggregator
		repart     func([]int) ([]int, error)
		epochBytes func() int64 // the traffic of the epoch just run
	}
	clusterBytes := func(c *worker.Cluster) func() int64 {
		return func() int64 {
			b, _ := c.Traffic()
			c.ResetTraffic()
			return b
		}
	}
	lanes := exchange.MethodMatrix(9)
	lanes["sched(delay3)"] = exchange.Config{DelayPeriod: 3, Seed: 9,
		Sched: sched.Policy{Enabled: true, EpochsPerLevel: 2, Stagger: -1}}
	top := len(sched.Ladder(sched.Setting{})) - 1
	for name, cfg := range lanes {
		for _, model := range []string{"gcn", "sage"} {
			t.Run(name+"/"+model, func(t *testing.T) {
				ref := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
				cl := worker.NewClusterFromConfig(d.Graph, part, nparts, cfg)
				tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
				defer tc.coord.Shutdown()
				if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
					t.Fatalf("setup: %v", err)
				}
				un := &uncached{inner: ref, traffic: func() int64 { b, _ := ref.Traffic(); return b }}
				runtimes := []runtime{
					{"uncached", un, ref.Repartition, clusterBytes(ref)},
					{"cluster", cl, cl.Repartition, clusterBytes(cl)},
					{"fleet", tc.coord, tc.coord.Repartition, func() int64 { return tc.coord.CaptureEpoch().TotalBytes }},
				}
				var losses [][]uint64
				var bytes [][]int64
				var logits []*tensor.Matrix
				var levels [][]int // the uncached run's rungs in force on each pass
				for _, rt := range runtimes {
					var m interface {
						gnn.Model
						gnn.EvalMarker
					}
					if model == "gcn" {
						m = gnn.NewGCN(rt.agg, dims, rand.New(rand.NewSource(1)))
					} else {
						m = gnn.NewSAGE(rt.agg, dims, rand.New(rand.NewSource(1)))
					}
					tr := gnn.NewTrainer(m, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask,
						gnn.TrainConfig{Epochs: epochs, LR: 0.02})
					var ls []uint64
					var bs []int64
					for e := 0; e < epochs; e++ {
						if e == repartAt {
							if _, err := rt.repart(part2); err != nil {
								t.Fatalf("%s: repartition: %v", rt.name, err)
							}
						}
						st, err := tr.RunEpoch()
						if err != nil {
							t.Fatalf("%s: epoch %d: %v", rt.name, e, err)
						}
						ls = append(ls, math.Float64bits(st.Loss))
						bs = append(bs, rt.epochBytes())
						if rt.name == "uncached" {
							levels = append(levels, ref.ScheduleLevels())
						}
					}
					m.StartEvalEpoch(epochs) // Trainer.Finish's pass, its logits kept
					logits = append(logits, m.Forward(d.Features).Clone())
					losses, bytes = append(losses, ls), append(bytes, append(bs, rt.epochBytes()))
					if rt.name == "uncached" {
						levels = append(levels, ref.ScheduleLevels())
					}
				}
				if len(un.layer0) != epochs+1 {
					t.Fatalf("uncached run recorded %d layer-0 rounds over %d epochs and an eval pass", len(un.layer0), epochs)
				}
				if cfg.Sched.Enabled {
					base := slices.IndexFunc(levels, func(lv []int) bool { return slices.Min(lv) == top })
					if base < 0 || base%cfg.DelayPeriod == 0 {
						t.Fatalf("levels %v: the schedule does not reach its base rung on an epoch that replays", levels)
					}
				}
				want, saved, keyed := slices.Clone(bytes[0]), int64(0), false
				delay := cfg.DelayPeriod > 1
				for e := 0; e <= epochs; e++ {
					if e == repartAt || e > 0 && !slices.Equal(levels[e], levels[e-1]) {
						keyed = false // the generation moved
					}
					reproducible := reproducibleLanes[name]
					for idx, lv := range levels[e] {
						if idx/nparts != idx%nparts && lv != top {
							reproducible = false
						}
					}
					switch {
					case !reproducible || delay && e == epochs:
						keyed = false
					case keyed:
						want[e] -= un.layer0[e]
						saved += un.layer0[e]
					case !delay || e%cfg.DelayPeriod == 0:
						keyed = true
					}
				}
				if reproducibleLanes[name] && saved == 0 {
					t.Fatalf("uncached run shipped no layer-0 round to save: %v, levels %v", un.layer0, levels)
				}
				for i, rt := range runtimes[1:] {
					if !slices.Equal(losses[i+1], losses[0]) || !logits[i+1].Equal(logits[0], 0) {
						t.Errorf("%s: losses %x, uncached %x; eval logits equal: %v", rt.name, losses[i+1], losses[0], logits[i+1].Equal(logits[0], 0))
					}
					if !slices.Equal(bytes[i+1], want) {
						t.Errorf("%s: epoch bytes %v, want %v (uncached %v, its layer-0 rounds %v)", rt.name, bytes[i+1], want, bytes[0], un.layer0)
					}
				}
			})
		}
	}
}

// TestNodeRefusesRoundBehind: the Round frame after a reused round carries
// the ordinal the nodes move to; a frame behind a node's own ordinal is
// refused with the peer's typed error, which reaches the coordinator as
// ErrRemote.
func TestNodeRefusesRoundBehind(t *testing.T) {
	const nparts = 2
	d, part, _ := testGraph(t, nparts)
	tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
	defer tc.coord.Shutdown()
	if err := tc.coord.Setup(d.Graph, part, dist.Delay(3)); err != nil {
		t.Fatalf("setup: %v", err)
	}
	h := randMat(d.NumNodes(), 5, 3)
	tc.coord.StartEpoch(0)
	if _, reuse := tc.coord.ReuseRound(0); reuse {
		t.Fatal("generation 0 reused")
	}
	gen, _ := tc.coord.ReuseRound(0)
	if _, reuse := tc.coord.ReuseRound(gen); !reuse {
		t.Fatal("a delay lane's current generation not reused")
	}
	if _, err := tc.coord.Round(h, false); err != nil { // ordinal 1
		t.Fatalf("round after a reused one: %v", err)
	}
	tc.coord.round, tc.coord.skipped = 1, true // the nodes are at 2
	_, err := tc.coord.Round(h, false)
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), worker.ErrRoundOrdinal.Error()) {
		t.Fatalf("round behind the nodes: %v, want ErrRemote naming %q", err, worker.ErrRoundOrdinal)
	}
}
