// Package dist implements the distributed full-batch GNN training runtime of
// the reproduction: a partitioned aggregator whose cross-partition halo
// exchange can be carried by any of the five methods the paper evaluates —
// vanilla per-edge transfer, boundary sampling, quantization, delayed
// transmission, and SC-GNN semantic compression — alone or in combination
// (the compatibility study of Fig. 12(b) composes them).
//
// The engine performs the real computation (training accuracy is measured,
// not modeled) while every cross-partition payload is routed through a
// simnet.Fabric that accounts bytes and messages exactly; an analytic cost
// model converts each epoch's traffic and per-method processing counters
// into a modeled epoch time (see internal/simnet and DESIGN.md §5).
//
// Both the local aggregate and the halo exchange are parallelized by
// receiver partition: every row of the output is owned by exactly one
// partition, so one goroutine per receiver accumulates into disjoint rows,
// with per-ordered-pair RNG streams, per-pair error-feedback stores, and
// per-shard traffic counters merged after the barrier. When Config.Workers
// exceeds the partition count, each receiver's owned-row range is further
// split into contiguous sub-shards and the exchange runs in two stages —
// stateful per-pair encoding, then stateless per-row-chunk delivery — so the
// speedup ceiling is min(cores, total rows) rather than min(cores, nparts).
// The schedule is bit-deterministic: for any Config.Workers value the
// results, bytes, and messages are identical (see
// TestSequentialParallelEquivalence and TestRowShardedEquivalence).
package dist

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"scgnn/internal/compress"
	"scgnn/internal/core"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/sched"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
	"scgnn/internal/wire"
)

// Config selects the halo-exchange method(s) for a training run.
//
// Feature flags compose: zero-value Config is the vanilla exchange;
// {Semantic: true} is SC-GNN; {Semantic: true, QuantBits: 8} is the
// "ours+quant" cell of Fig. 12(b), and so on.
type Config struct {
	// Semantic enables SC-GNN grouping + up-sampling compression.
	Semantic bool
	// Plan configures semantic grouping (group count, similarity, drop mask).
	Plan core.PlanConfig
	// SampleRate in (0,1) enables Bernoulli edge/unit sampling at that rate.
	// 0 or 1 disables sampling.
	SampleRate float64
	// SampleNodes switches sampling from per-edge coins to per-boundary-node
	// coins (BNS-GCN's granularity): all of a node's cross edges toward one
	// partition share one decision per round. Coins are drawn from a
	// per-ordered-pair stream, so a node with cross edges into several
	// partitions flips one coin per (node, destination) pair.
	SampleNodes bool
	// QuantBits in 1..16 enables affine quantization of payloads.
	// 0 (or 32) disables quantization.
	QuantBits int
	// AdaptiveQuant switches to variance-adaptive bit allocation (AdaQP's
	// adaptive idea): each message picks its width in [2, QuantBits].
	AdaptiveQuant bool
	// ErrorFeedback adds residual error feedback on top of quantization:
	// each transfer unit's quantization error is carried into its next
	// round, so the lossy exchange becomes unbiased over time. Only
	// meaningful when QuantBits is set.
	ErrorFeedback bool
	// DelayPeriod > 1 enables delayed transmission: fresh values every
	// DelayPeriod epochs, stale replays in between.
	DelayPeriod int
	// Seed drives sampling. Every ordered partition pair derives its own
	// decorrelated child stream from this seed.
	Seed int64
	// Sched enables variable-rate communication scheduling: every ordered
	// pair starts on the most aggressive rung of sched.Ladder(base) — where
	// base is this Config's own sampling/quantization/EF gates — and anneals
	// toward the base as epochs pass and signals fire. Decisions are pure
	// functions of (epoch, per-pair signals, Seed), so every runtime and
	// every replica picks the identical schedule. Semantic grouping and
	// delayed transmission stay global (plans and whole-round delay caches
	// cannot vary per pair).
	Sched sched.Policy
	// Workers caps the goroutines driving the local aggregate and the
	// cross-partition exchange. 0 uses GOMAXPROCS; 1 forces the sequential
	// schedule; values above the partition count engage intra-partition row
	// sharding (each receiver's owned rows split into contiguous chunks, the
	// exchange run as per-pair encode then per-chunk delivery), lifting the
	// speedup ceiling to min(cores, total rows). Results are bit-identical
	// for every value: each unit of work owns disjoint output rows, RNG
	// streams, compression state, and traffic counters, and every row
	// accumulates its contributions in the sequential order.
	Workers int
}

// MethodName renders the enabled features, e.core.G. "vanilla", "semantic",
// "sampling+quant".
func (c Config) MethodName() string {
	var parts []string
	if c.Semantic {
		parts = append(parts, "semantic")
	}
	if c.SampleRate > 0 && c.SampleRate < 1 {
		if c.SampleNodes {
			parts = append(parts, "nsampling")
		} else {
			parts = append(parts, "sampling")
		}
	}
	if c.QuantBits > 0 && c.QuantBits < 32 {
		if c.AdaptiveQuant {
			parts = append(parts, "aquant")
		} else {
			parts = append(parts, "quant")
		}
	}
	if c.DelayPeriod > 1 {
		parts = append(parts, "delay")
	}
	if c.ErrorFeedback && c.QuantBits > 0 && c.QuantBits < 32 {
		parts = append(parts, "ef")
	}
	name := "vanilla"
	if len(parts) > 0 {
		name = strings.Join(parts, "+")
	}
	if c.Sched.Enabled {
		return "sched(" + name + ")"
	}
	return name
}

// BaseSetting projects the config's per-pair compression gates onto the
// scheduler's Setting — the final rung of the annealing ladder. The worker
// runtime uses the same projection so both runtimes anneal toward the
// identical base.
func (c Config) BaseSetting() sched.Setting {
	return sched.Setting{
		SampleRate:  c.SampleRate,
		SampleNodes: c.SampleNodes,
		QuantBits:   c.QuantBits,
		Adaptive:    c.AdaptiveQuant,
		EF:          c.ErrorFeedback,
	}
}

// Exchange projects the config onto the options of the shared exchange core —
// the one mapping every runtime builds its core from. The Workers cap also
// bounds offline planning when the plan config leaves it unset (plans are
// identical for any worker count).
func (c Config) Exchange() exchange.Options {
	plan := c.Plan
	if plan.Workers == 0 {
		plan.Workers = c.Workers
	}
	return exchange.Options{Semantic: c.Semantic, Plan: plan, Base: c.BaseSetting(), Seed: c.Seed, Sched: c.Sched}
}

// Vanilla returns the uncompressed baseline configuration.
func Vanilla() Config { return Config{} }

// Sampling returns the edge-sampling baseline at the given rate.
func Sampling(rate float64, seed int64) Config { return Config{SampleRate: rate, Seed: seed} }

// Quant returns the quantization baseline at the given bit width.
func Quant(bits int) Config { return Config{QuantBits: bits} }

// Delay returns the delayed-transmission baseline with the given period.
func Delay(period int) Config { return Config{DelayPeriod: period} }

// Semantic returns the SC-GNN configuration with the given plan.
func Semantic(plan core.PlanConfig) Config { return Config{Semantic: true, Plan: plan} }

// shard is the per-receiver-partition accumulator for one parallel phase:
// traffic and processing counters land here and are merged into the engine
// totals after the barrier.
type shard struct {
	traffic *simnet.ShardCounter

	quantValues    int64
	sampleEdges    int64
	semanticValues int64
	aggFlops       int64

	// payload and efTrue are scratch vectors reused across this shard's pairs
	// (outgoing payload, error-feedback staging).
	payload []float64
	efTrue  []float64
}

// unitRef identifies one transmitted unit buffered for deferred delivery:
// gi ≥ 0 is a plan-group index, gi < 0 marks a per-node payload addressed to
// node recv.
type unitRef struct {
	gi   int32
	recv int32
}

// pairBuf is an ordered pair's retained staging arena for the two-stage
// (row-sharded) exchange: stage 1 appends each surviving unit's
// receiver-visible payload here, stage 2 delivers them to row chunks. Unit i
// occupies vals[i·dim : (i+1)·dim]. Buffers keep their capacity across
// rounds, so steady-state rounds don't allocate.
type pairBuf struct {
	units []unitRef
	vals  []float64
}

func (b *pairBuf) reset() {
	b.units = b.units[:0]
	b.vals = b.vals[:0]
}

func (b *pairBuf) push(ref unitRef, payload []float64) {
	b.units = append(b.units, ref)
	b.vals = append(b.vals, payload...)
}

// Engine orchestrates partitioned aggregation for one (graph, partition)
// pair under one Config. It implements gnn.Aggregator, so any model from
// internal/gnn trains on it unchanged.
type Engine struct {
	// core is the shared exchange state: topology, plans, and the per-pair
	// compression streams every unit walk runs on (internal/exchange).
	core   *exchange.Core
	nparts int
	cfg    Config

	fabric *simnet.Fabric

	delay *compress.DelayCache
	// freshEval forces the next rounds to bypass delayed transmission —
	// the final evaluation pass must see current values, not stale replays.
	freshEval bool

	epoch int
	round int

	// shards[i] is parallel task i's accumulator, merged after every
	// parallel phase (task i is receiver partition i when Workers ≤ nparts;
	// the slice grows lazily for the finer-grained row-sharded schedule).
	shards []*shard
	// pairBufs[s*nparts+t], allocated on the first row-sharded round, stages
	// pair (s→t)'s encoded units between the two exchange stages.
	pairBufs []pairBuf

	// per-epoch processing counters (see simnet.Snapshot)
	quantValues    int64
	sampleEdges    int64
	semanticValues int64
	aggFlops       int64
}

// NewEngine validates the partition vector and precomputes the cross-edge
// structures and (when enabled) the semantic plans. Invalid partitions panic
// here; callers wanting an error instead go through the public scgnn API,
// which validates first.
func NewEngine(g *graph.Graph, part []int, nparts int, cfg Config) *Engine {
	e := &Engine{
		core:   exchange.New(g, part, nparts, cfg.Exchange()),
		nparts: nparts,
		cfg:    cfg,
		fabric: simnet.NewFabric(nparts),
	}
	if cfg.DelayPeriod > 1 {
		e.delay = compress.NewDelayCache(cfg.DelayPeriod)
	}
	e.shards = make([]*shard, nparts)
	for r := range e.shards {
		e.shards[r] = &shard{traffic: simnet.NewShardCounter(nparts)}
	}
	return e
}

// Repartition moves the engine to a new partition of the same graph under the
// exchange core's incremental contract (exchange.Core.Repartition): clean
// pairs keep plan, arcs and streams verbatim, dirty pairs are rebuilt and
// re-seeded. Delay slots hold whole-round aggregates, so they are invalidated
// iff any pair is dirty; a boundary-preserving repartition keeps its replays.
// Returns the ascending dirty pair indices; on error the engine is unchanged.
func (e *Engine) Repartition(part []int) ([]int, error) {
	dirty, err := e.core.Repartition(part)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	if e.delay != nil && len(dirty) > 0 {
		e.delay.Invalidate()
	}
	return dirty, nil
}

// Fabric exposes the traffic accounting (read-only use intended).
func (e *Engine) Fabric() *simnet.Fabric { return e.fabric }

// Plans exposes the semantic pair plans (nil when Semantic is off).
func (e *Engine) Plans() []*core.PairPlan {
	var out []*core.PairPlan
	for _, p := range e.core.PairPlans {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// StartEpoch resets the per-epoch counters; must be called before each
// training epoch. When variable-rate scheduling is on, the epoch boundary is
// also the decision point (exchange.Streams.Advance): pairs whose rung
// changed are re-seeded from scratch — the same reconfiguration contract
// Repartition applies to dirty pairs. Rung changes never touch the delay
// cache (delay slots hold whole-round aggregates, which scheduling does not
// vary).
func (e *Engine) StartEpoch(epoch int) {
	e.core.Advance(epoch)
	e.epoch = epoch
	e.round = 0
	e.freshEval = false
	e.fabric.Reset()
	e.quantValues = 0
	e.sampleEdges = 0
	e.semanticValues = 0
	e.aggFlops = 0
	if e.delay != nil {
		e.delay.ResetCounters()
	}
}

// ScheduleLevels returns a copy of the current per-pair rung levels, or nil
// when variable-rate scheduling is disabled.
func (e *Engine) ScheduleLevels() []int { return e.core.Levels() }

// StartEvalEpoch prepares a measurement-only forward pass: counters reset as
// in StartEpoch, and delayed transmission is bypassed — the pass computes
// fresh remote contributions without reading or writing the delay cache, so
// a final evaluation never scores the model against stale replays.
func (e *Engine) StartEvalEpoch(epoch int) {
	e.StartEpoch(epoch)
	e.freshEval = true
}

// CaptureEpoch freezes this epoch's traffic and processing counters.
func (e *Engine) CaptureEpoch() simnet.Snapshot {
	s := e.fabric.Capture()
	s.QuantValues = e.quantValues
	s.SampleEdges = e.sampleEdges
	s.SemanticValues = e.semanticValues
	s.ComputeFlops = e.aggFlops
	if e.delay != nil {
		s.CacheValues = e.delay.Touched
	}
	return s
}

// Forward implements gnn.Aggregator: out = Â·h with the cross-partition part
// of Â carried by the configured exchange method.
func (e *Engine) Forward(h *tensor.Matrix) *tensor.Matrix {
	out := e.localAggregate(h)
	e.remote(h, out, false)
	return out
}

// Backward implements gnn.Aggregator: gradients flow along the transposed
// edges, dst partition → src partition, through the reversed semantics.
func (e *Engine) Backward(g *tensor.Matrix) *tensor.Matrix {
	out := e.localAggregate(g)
	e.remote(g, out, true)
	return out
}

// workerCount resolves Config.Workers (0 → GOMAXPROCS).
func (e *Engine) workerCount() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachTask executes fn(i, shard[i]) for tasks 0..ntasks-1, fanning out
// across at most workers goroutines, then merges every task shard's counters
// into the engine totals. The merge happens after the barrier and in fixed
// i-order; counters are exact integer sums, so totals are schedule-free.
func (e *Engine) forEachTask(ntasks, workers int, fn func(i int, sh *shard)) {
	if ntasks == 0 {
		return
	}
	if workers > ntasks {
		workers = ntasks
	}
	for len(e.shards) < ntasks {
		e.shards = append(e.shards, &shard{traffic: simnet.NewShardCounter(e.nparts)})
	}
	if workers <= 1 {
		for i := 0; i < ntasks; i++ {
			fn(i, e.shards[i])
		}
	} else {
		var next int32
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt32(&next, 1)) - 1
					if i >= ntasks {
						return
					}
					fn(i, e.shards[i])
				}
			}()
		}
		wg.Wait()
	}
	for i := 0; i < ntasks; i++ {
		sh := e.shards[i]
		e.fabric.Merge(sh.traffic)
		sh.traffic.Reset()
		e.quantValues += sh.quantValues
		e.sampleEdges += sh.sampleEdges
		e.semanticValues += sh.semanticValues
		e.aggFlops += sh.aggFlops
		sh.quantValues, sh.sampleEdges, sh.semanticValues, sh.aggFlops = 0, 0, 0, 0
	}
}

// runShards is the coarse schedule: one task per receiver partition.
func (e *Engine) runShards(fn func(r int, sh *shard)) {
	e.forEachTask(e.nparts, e.workerCount(), fn)
}

// chunksPerPart sizes the row-sharded schedule: each partition's owned rows
// split into this many contiguous chunks so ~workers tasks exist in total.
func (e *Engine) chunksPerPart(workers int) int {
	return (workers + e.nparts - 1) / e.nparts
}

// chunkRows maps row-sharded task i to its receiver partition and the
// contiguous slice of that partition's owned rows (ascending node ids) it is
// responsible for. The split depends only on (workers, nparts, |own[r]|), so
// the task→rows mapping is deterministic.
func (e *Engine) chunkRows(i, chunks int) (int, []int32) {
	r := i / chunks
	c := i % chunks
	rows := e.core.Own[r]
	a := c * len(rows) / chunks
	b := (c + 1) * len(rows) / chunks
	return r, rows[a:b]
}

// scratch returns the shard's reusable payload buffer, sized to dim.
func (sh *shard) scratch(dim int) []float64 {
	if cap(sh.payload) < dim {
		sh.payload = make([]float64, dim)
	}
	return sh.payload[:dim]
}

// localAggregate computes the within-partition part of Â·h (self loops plus
// same-partition neighbors); no traffic. Rows are sharded by their owner
// partition — or into finer contiguous row chunks when Workers > nparts —
// each task writes only its own rows, and each row's sum is accumulated in
// the same neighbor order as the sequential schedule.
func (e *Engine) localAggregate(h *tensor.Matrix) *tensor.Matrix {
	n := e.core.G.NumNodes()
	if h.Rows != n {
		panic(fmt.Sprintf("dist: matrix rows %d, graph nodes %d", h.Rows, n))
	}
	out := tensor.New(n, h.Cols)
	workers := e.workerCount()
	if workers <= e.nparts {
		e.runShards(func(r int, sh *shard) {
			e.localRows(r, e.core.Own[r], h, out, sh)
		})
		return out
	}
	chunks := e.chunksPerPart(workers)
	e.forEachTask(e.nparts*chunks, workers, func(i int, sh *shard) {
		r, rows := e.chunkRows(i, chunks)
		e.localRows(r, rows, h, out, sh)
	})
	return out
}

func (e *Engine) localRows(r int, rows []int32, h, out *tensor.Matrix, sh *shard) {
	for _, u := range rows {
		fu := e.core.Coeff[u]
		orow := out.Row(int(u))
		tensor.AXPY(fu*fu, h.Row(int(u)), orow)
		for _, v := range e.core.G.Neighbors(u) {
			if e.core.Part[v] == r {
				tensor.AXPY(fu*e.core.Coeff[v], h.Row(int(v)), orow)
				sh.aggFlops += int64(2 * h.Cols)
			}
		}
	}
}

// remote adds the cross-partition contributions into out. In the backward
// direction the traffic flows dst→src along the same structures.
//
// The exchange is sharded by receiver partition: receiver r's goroutine
// walks its peers in fixed order and accumulates into the rows partition r
// owns, so every output row sees its additions in the exact sequential
// order regardless of Workers.
func (e *Engine) remote(h, out *tensor.Matrix, backward bool) {
	round := e.round
	e.round++

	// Delayed transmission replays the whole stale remote contribution
	// (bypassed entirely during a forced-fresh evaluation pass).
	if e.delay != nil && !e.freshEval && !e.delay.ShouldTransmit(e.epoch) {
		if stale := e.delay.Load(round); stale != nil {
			tensor.AddInPlace(out, stale)
			return
		}
	}

	// Without a delay cache the contributions accumulate straight into out
	// — no per-round delta matrix allocation on the hot path.
	target := out
	if e.delay != nil && !e.freshEval {
		target = tensor.New(out.Rows, out.Cols)
	}
	if workers := e.workerCount(); workers > e.nparts {
		e.remoteSharded(h, target, backward, round, workers)
	} else {
		e.runShards(func(r int, sh *shard) {
			for peer := 0; peer < e.nparts; peer++ {
				if peer != r {
					e.exchangePair(r, peer, h, target, backward, round, sh, nil)
				}
			}
		})
	}
	if target != out {
		e.delay.Store(round, target)
		tensor.AddInPlace(out, target)
	}
}

// remoteSharded is the two-stage row-sharded exchange used when Workers >
// nparts. Stage 1 parallelizes over ordered pairs: each pair's stateful walk
// (RNG coins, error feedback, quantization, traffic) runs on exactly one
// goroutine, buffering the receiver-visible payload of every surviving unit
// into the pair's retained arena. Stage 2 parallelizes over contiguous
// owned-row chunks: each chunk walks its receiver's peers in ascending order
// and delivers the buffered units whose destination falls in the chunk, so
// every output row accumulates its contributions in exactly the sequential
// order — results are bit-identical to the Workers=1 schedule while the
// ceiling rises to min(cores, total rows).
func (e *Engine) remoteSharded(h, delta *tensor.Matrix, backward bool, round, workers int) {
	if e.pairBufs == nil {
		e.pairBufs = make([]pairBuf, e.nparts*e.nparts)
	}
	np := e.nparts
	e.forEachTask(np*(np-1), workers, func(i int, sh *shard) {
		r := i / (np - 1)
		peer := i % (np - 1)
		if peer >= r {
			peer++
		}
		idx, _, _ := e.pairFor(r, peer, backward)
		buf := &e.pairBufs[idx]
		buf.reset()
		e.exchangePair(r, peer, h, nil, backward, round, sh, buf)
	})
	chunks := e.chunksPerPart(workers)
	e.forEachTask(np*chunks, workers, func(i int, sh *shard) {
		r, rows := e.chunkRows(i, chunks)
		if len(rows) == 0 {
			return
		}
		e.deliverChunk(r, rows[0], rows[len(rows)-1], delta, backward, sh)
	})
}

// deliverChunk adds every buffered unit destined for a node in [lo, hi] (a
// contiguous slice of receiver r's ascending owned rows) into delta. Units
// are visited peer-ascending then in buffered order — the sequential
// accumulation order of each row.
func (e *Engine) deliverChunk(r int, lo, hi int32, delta *tensor.Matrix, backward bool, sh *shard) {
	dim := delta.Cols
	for peer := 0; peer < e.nparts; peer++ {
		if peer == r {
			continue
		}
		idx, _, _ := e.pairFor(r, peer, backward)
		buf := &e.pairBufs[idx]
		if len(buf.units) == 0 {
			continue
		}
		groups := e.core.Groups(idx, backward)
		for ui, u := range buf.units {
			payload := buf.vals[ui*dim : (ui+1)*dim]
			if u.gi < 0 {
				v := u.recv
				if v < lo || v > hi {
					continue
				}
				tensor.AXPY(e.core.Coeff[v], payload, delta.Row(int(v)))
				sh.aggFlops += int64(2 * dim)
				continue
			}
			grp := groups[u.gi]
			for k, v := range grp.DstNodes {
				if v < lo || v > hi {
					continue
				}
				tensor.AXPY(grp.DDst[k]*e.core.Coeff[v], payload, delta.Row(int(v)))
				sh.aggFlops += int64(2 * dim)
				sh.semanticValues += int64(dim)
			}
		}
	}
}

// pairFor resolves the structural pair index whose traffic receiver r
// consumes from peer in this direction, plus the (from, to) link it rides.
// Forward: pair (peer→r) delivers into r's rows. Backward: pair (r→peer)
// reversed — its sinks live in peer, its sources (the gradient receivers)
// in r — so traffic still flows peer→r.
func (e *Engine) pairFor(r, peer int, backward bool) (idx, from, to int) {
	if backward {
		return r*e.nparts + peer, peer, r
	}
	return peer*e.nparts + r, peer, r
}

// exchangePair runs one ordered pair's exchange toward receiver r: the shared
// unit walk decides which units survive, and this sink does the engine's part
// per unit — build the payload in float64 (Fig. 7(b) line 2 for a group:
// h_g = Σ w(u)·f[u]·h_u, the GCN normalization folded in so delivery only
// needs the receiver factor; f[u]·h_u for a per-node unit; rounded to the
// fp32 the wire ships when the pair sends plain payloads, in the build loop
// where it is cheapest), account it through sendPayload, and deliver it. With
// buf == nil the payload is delivered straight into delta (the coarse
// schedule); with buf != nil it is staged in the pair's arena for stage-2
// chunk delivery, and the delivery-side counters are deferred with it.
func (e *Engine) exchangePair(r, peer int, h, delta *tensor.Matrix, backward bool, round int, sh *shard, buf *pairBuf) {
	dim := h.Cols
	idx, from, to := e.pairFor(r, peer, backward)
	ps := &e.core.Pairs[idx]
	coeff := e.core.Coeff
	groups := e.core.Groups(idx, backward)
	if !e.cfg.Semantic && (ps.Sampler != nil || ps.NodeSampler != nil) {
		sh.sampleEdges += int64(len(e.core.CrossOut[idx]))
	}
	payload := sh.scratch(dim)
	plain := ps.Bits == 0 // nothing quantises: deliver the fp32 the wire ships
	e.core.Walk(idx, backward, func(u exchange.Unit) {
		if u.Group < 0 {
			scale := coeff[u.Sender] * u.Scale
			if plain {
				for i, v := range h.Row(int(u.Sender)) {
					payload[i] = float64(float32(scale * v))
				}
			} else {
				for i, v := range h.Row(int(u.Sender)) {
					payload[i] = scale * v
				}
			}
			e.sendPayload(ps, sh, from, to, round, u.Index, payload)
			if buf != nil {
				buf.push(unitRef{gi: -1, recv: u.Receiver}, payload)
				return
			}
			tensor.AXPY(coeff[u.Receiver], payload, delta.Row(int(u.Receiver)))
			sh.aggFlops += int64(2 * dim)
			return
		}
		grp := groups[u.Group]
		clear(payload)
		for k, m := range grp.SrcNodes {
			tensor.AXPY(grp.WOut[k]*coeff[m]*u.Scale, h.Row(int(m)), payload)
		}
		if plain {
			for i, x := range payload {
				payload[i] = float64(float32(x))
			}
		}
		sh.semanticValues += int64(len(grp.SrcNodes) * dim)
		e.sendPayload(ps, sh, from, to, round, u.Index, payload)
		if buf != nil {
			sh.aggFlops += int64(2 * dim * len(grp.SrcNodes))
			buf.push(unitRef{gi: u.Group, recv: -1}, payload)
			return
		}
		for k, v := range grp.DstNodes {
			tensor.AXPY(grp.DDst[k]*coeff[v], payload, delta.Row(int(v)))
		}
		sh.semanticValues += int64(len(grp.DstNodes) * dim)
		sh.aggFlops += int64(2 * dim * (len(grp.SrcNodes) + len(grp.DstNodes)))
	})
}

// sendPayload replaces a quantized pair's payload in place by what the
// receiver reconstructs from the bytes the wire runtimes ship for it (a plain
// payload arrives already rounded to fp32) and records the message on the
// shard's traffic counter. unit is the candidate-unit index within (pair,
// round); dropped candidates consume an index too, so error-feedback keys
// stay aligned across epochs.
func (e *Engine) sendPayload(ps *exchange.PairState, sh *shard, from, to, round int, unit int64, payload []float64) {
	// Residual error feedback: correct the payload by last round's
	// quantization error for this transfer unit, then record the new error.
	var trueVals []float64
	var efKey int64
	if ps.EF != nil {
		efKey = compress.RoundUnitKey(round, unit)
		ps.EF.PreCompress(efKey, payload)
		// Stage the pre-compression values in the shard's retained scratch
		// instead of a fresh slice per unit.
		trueVals = append(sh.efTrue[:0], payload...)
		sh.efTrue = trueVals
	}
	bytes := wire.ValueBytes * len(payload)
	if ps.Bits > 0 {
		sh.quantValues += int64(len(payload))
		if ps.Adaptive != nil {
			bytes = ps.Adaptive.Roundtrip(payload)
		} else {
			bytes = (&compress.Quantizer{Bits: ps.Bits}).Roundtrip(payload)
		}
	}
	if ps.EF != nil {
		ps.EF.PostCompress(efKey, trueVals, payload)
	}
	sh.traffic.Send(from, to, bytes)
}

// CrossEdgeCount returns the total number of cross-partition arcs.
func (e *Engine) CrossEdgeCount() int {
	n := 0
	for _, edges := range e.core.CrossOut {
		n += len(edges)
	}
	return n
}

// RandSource returns a child RNG for callers needing engine-correlated
// randomness (model init in the runner).
func (e *Engine) RandSource() *rand.Rand {
	return rand.New(rand.NewSource(e.cfg.Seed*7919 + 17))
}
