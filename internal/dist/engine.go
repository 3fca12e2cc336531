// Package dist implements the distributed full-batch GNN training runtime of
// the reproduction: a partitioned aggregator whose cross-partition halo
// exchange can be carried by any of the five methods the paper evaluates —
// vanilla halo transfer, boundary-node sampling, quantization, delayed
// transmission, and SC-GNN semantic compression — alone or in combination
// (the compatibility study of Fig. 12(b) composes them).
//
// The engine performs the real computation (training accuracy is measured,
// not modeled) on the one in-process driver of the round body every runtime
// executes (worker.Cluster): each partition's worker aggregates its rows,
// encodes its halo into wire frames and decodes its peers', and the bytes and
// messages of those frames land per link in a simnet.Fabric. An analytic cost
// model converts each epoch's traffic and per-method processing counters —
// integer sums over what was exchanged — into a modeled epoch time (see
// internal/simnet and DESIGN.md §5). Train is the one training driver: it
// steps gnn.Trainer, the one full-batch loop, on any Runtime — the engine, a
// worker.Cluster, or a connected net.Coordinator — and adds what is dist's
// own: the model and its init stream, the analytic model flops, the cost
// model, and (on a fleet) the checkpoint at every epoch boundary. Run is
// Train on a worker.Cluster, with the partition and configuration checked
// first.
//
// What the engine adds is the epoch: StartEpoch resets the cluster's traffic
// and processing counters, CaptureEpoch freezes them as the simnet.Snapshot
// the cost model reads. The schedule is the cluster's — a round is two
// fork-joins over one goroutine per partition; no goroutine outlives a round,
// so there is nothing to Close. Each partition owns disjoint output rows, pair
// streams and counters, and every row sums its remote contributions in
// ascending sender order, so results, bytes, messages and counters are
// bit-identical for every GOMAXPROCS (see TestSequentialParallelEquivalence)
// and, the engine being a cluster, to worker.Cluster's
// (TestEngineEqualsCluster pins the wrapper).
package dist

import (
	"fmt"

	"scgnn/internal/core"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/sched"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// Config selects the halo-exchange method(s) for a training run. It is the
// exchange core's configuration — every runtime is built from the same value —
// re-exported here beside the per-method constructors.
type Config = exchange.Config

// Vanilla returns the uncompressed baseline configuration.
func Vanilla() Config { return Config{} }

// Sampling returns the boundary-node sampling baseline at the given rate.
func Sampling(rate float64, seed int64) Config { return Config{SampleRate: rate, Seed: seed} }

// Quant returns the quantization baseline at the given bit width.
func Quant(bits int) Config { return Config{QuantBits: bits} }

// Delay returns the delayed-transmission baseline with the given period.
func Delay(period int) Config { return Config{DelayPeriod: period} }

// Semantic returns the SC-GNN configuration with the given plan.
func Semantic(plan core.PlanConfig) Config { return Config{Semantic: true, Plan: plan} }

// MethodFlags is a command line's choice of exchange — the method name and
// the knobs the methods read — as scgnn-train takes it.
type MethodFlags struct {
	Method               string // vanilla, sampling, quant, delay or semantic
	Rate                 float64
	Bits, Period, Groups int
	DropO2O              bool
	Seed                 int64
	// Sched, when Enabled, anneals every pair up to the method (Config.Sched).
	Sched sched.Policy
}

// Config maps the flags onto the exchange they select. A value the run would
// panic on, or would quietly run as the vanilla exchange, is an error naming
// the flag: -rate outside (0,1), -bits outside 1..16, -period below 2,
// negative -groups, an unknown method.
func (f MethodFlags) Config() (Config, error) {
	var cfg Config
	switch f.Method {
	case "vanilla":
		cfg = Vanilla()
	case "sampling":
		if !(f.Rate > 0 && f.Rate < 1) {
			return cfg, fmt.Errorf("-rate %v: want a sampling rate in (0,1)", f.Rate)
		}
		cfg = Sampling(f.Rate, f.Seed)
	case "quant":
		if f.Bits < 1 || f.Bits > 16 {
			return cfg, fmt.Errorf("-bits %d: want a width in 1..16", f.Bits)
		}
		cfg = Quant(f.Bits)
	case "delay":
		if f.Period < 2 {
			return cfg, fmt.Errorf("-period %d: want at least 2", f.Period)
		}
		cfg = Delay(f.Period)
	case "semantic":
		if f.Groups < 0 {
			return cfg, fmt.Errorf("-groups %d: want 0 (auto) or more", f.Groups)
		}
		plan := core.PlanConfig{Grouping: core.GroupingConfig{K: f.Groups, Seed: f.Seed}}
		if f.DropO2O {
			plan.Drop = core.DropO2O
		}
		cfg = Semantic(plan)
	default:
		return cfg, fmt.Errorf("unknown method %q", f.Method)
	}
	if f.Sched.Enabled {
		// The per-pair stagger offsets derive from the config seed, so pin it:
		// same seed → same schedule on any runtime.
		cfg.Seed = f.Seed
		cfg.Sched = f.Sched
	}
	return cfg, nil
}

// Engine orchestrates partitioned aggregation for one (graph, partition)
// pair under one Config. It implements gnn.Aggregator, so any model from
// internal/gnn trains on it unchanged. It is the in-process driver
// (worker.Cluster) reported per epoch: StartEpoch resets the cluster's
// counters and CaptureEpoch freezes them, where the cluster's own callers let
// them run. Rounds must be driven by one goroutine at a time; no goroutine
// outlives a round, so there is nothing to Close.
type Engine struct {
	c   *worker.Cluster
	cfg Config
}

// NewEngine precomputes the cross-edge structures, the gather plans and (when
// enabled) the semantic plans. A partition or configuration worker.Validate
// refuses panics here; Run checks it first and returns the error.
func NewEngine(g *graph.Graph, part []int, nparts int, cfg Config) *Engine {
	return &Engine{c: worker.NewClusterFromConfig(g, part, nparts, cfg), cfg: cfg}
}

// StartEpoch resets the per-epoch counters; must be called before each
// training epoch. When variable-rate scheduling is on, the epoch boundary is
// also the decision point (exchange.Streams.Advance): pairs whose rung
// changed are re-seeded from scratch — the same reconfiguration contract a
// repartition applies to dirty pairs. Rung changes never touch the delay
// slots (they hold whole-round aggregates, which scheduling does not vary).
func (e *Engine) StartEpoch(epoch int) {
	e.c.StartEpoch(epoch)
	e.c.ResetTraffic()
}

// StartEvalEpoch prepares a measurement-only forward pass: counters reset as
// in StartEpoch, and delayed transmission is bypassed — the pass computes
// fresh remote contributions without reading or writing the delay slots, so
// a final evaluation never scores the model against stale replays.
func (e *Engine) StartEvalEpoch(epoch int) {
	e.c.StartEvalEpoch(epoch)
	e.c.ResetTraffic()
}

// ReuseRound implements gnn.RoundReuser (see worker.Cluster.ReuseRound).
func (e *Engine) ReuseRound(gen uint64) (uint64, bool) { return e.c.ReuseRound(gen) }

// CaptureEpoch freezes this epoch's traffic and processing counters.
func (e *Engine) CaptureEpoch() simnet.Snapshot { return e.c.CaptureEpoch() }

// Forward implements gnn.Aggregator: out = Â·h with the cross-partition part
// of Â carried by the configured exchange method. It panics (recoverably, on
// the caller's goroutine) if the round fails; use AggregateInto to receive
// the error instead.
func (e *Engine) Forward(h *tensor.Matrix) *tensor.Matrix { return e.c.Forward(h) }

// Backward implements gnn.Aggregator: gradients flow along the transposed
// edges, dst partition → src partition, through the reversed semantics. It
// panics like Forward.
func (e *Engine) Backward(g *tensor.Matrix) *tensor.Matrix { return e.c.Backward(g) }

// AggregateInto runs one round into dst (which it zeroes first); see
// worker.Cluster.AggregateInto. A mis-shaped h or dst is an error before
// anything runs; an error from the round itself means the output is unusable
// and the engine is poisoned: every later round returns the same error.
func (e *Engine) AggregateInto(dst, h *tensor.Matrix, backward bool) error {
	return e.c.AggregateInto(dst, h, backward)
}
