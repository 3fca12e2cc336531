package exchange

import (
	"strings"

	"scgnn/internal/core"
	"scgnn/internal/sched"
)

// Config selects the halo-exchange method(s) for a training run — the one
// configuration every runtime builds its core from (internal/dist re-exports
// it as dist.Config beside the per-method constructors).
//
// Feature flags compose: zero-value Config is the vanilla exchange;
// {Semantic: true} is SC-GNN; {Semantic: true, QuantBits: 8} is the
// "ours+quant" cell of Fig. 12(b), and so on.
type Config struct {
	// Semantic enables SC-GNN grouping + up-sampling compression.
	Semantic bool
	// Plan configures semantic grouping (group count, similarity, drop mask).
	Plan core.PlanConfig
	// SampleRate in (0,1) enables boundary-node Bernoulli sampling at that
	// rate (BNS-GCN's granularity): each round a pair keeps a boundary row's
	// message — a halo star, which on a semantic pair is an O2O residual —
	// or a plan group with that probability and rescales what it keeps by
	// 1/SampleRate. Coins are
	// seeded per ordered pair, so a row with arcs into several partitions
	// flips one coin per (row, destination) pair. 0 or 1 disables sampling.
	SampleRate float64
	// QuantBits in 1..16 is the width of affine payload quantization;
	// 0 or >= 32 disables it. 17..31 is neither: the quantizer panics on it
	// and worker.NewPeer rejects it.
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
	// decorrelated coin seed from this seed.
	Seed int64
	// Sched enables variable-rate communication scheduling: every ordered
	// pair starts on the most aggressive rung of sched.Ladder(base) — where
	// base is this Config's own sampling/quantization/EF gates — and anneals
	// toward the base as epochs pass and signals fire. Decisions are pure
	// functions of (epoch, per-pair signals, Seed), so every runtime and
	// every replica picks the identical schedule. Semantic grouping and
	// delayed transmission stay global (plans and whole-round delay slots
	// cannot vary per pair).
	Sched sched.Policy
}

// MethodName renders the enabled features, e.g. "vanilla", "semantic",
// "sampling+quant".
func (c Config) MethodName() string {
	var parts []string
	if c.Semantic {
		parts = append(parts, "semantic")
	}
	if c.SampleRate > 0 && c.SampleRate < 1 {
		parts = append(parts, "sampling")
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
// scheduler's Setting — the static setting, or the final rung of the
// annealing ladder when Sched is enabled.
func (c Config) BaseSetting() sched.Setting {
	return sched.Setting{
		SampleRate: c.SampleRate,
		QuantBits:  c.QuantBits,
		Adaptive:   c.AdaptiveQuant,
		EF:         c.ErrorFeedback,
	}
}

// MethodMatrix returns the 11 method combinations of the paper's
// compatibility study (Fig. 12(b)): every baseline alone, SC-GNN alone, and
// SC-GNN composed with each baseline. It is the shared fixture behind every
// runtime's equivalence matrix and the ablation harness — one map, so the
// layers provably exercise the same configurations.
//
// All entries share the given seed (sampling streams, semantic grouping),
// making any two runs of the same entry reproducible.
func MethodMatrix(seed int64) map[string]Config {
	plan := core.PlanConfig{Grouping: core.GroupingConfig{Seed: seed}}
	return map[string]Config{
		"vanilla":           {Seed: seed},
		"sampling":          {SampleRate: 0.5, Seed: seed},
		"quant8":            {QuantBits: 8, Seed: seed},
		"aquant":            {QuantBits: 8, AdaptiveQuant: true, Seed: seed},
		"delay3":            {DelayPeriod: 3, Seed: seed},
		"quant4+ef":         {QuantBits: 4, ErrorFeedback: true, Seed: seed},
		"semantic":          {Semantic: true, Plan: plan, Seed: seed},
		"semantic+quant":    {Semantic: true, Plan: plan, QuantBits: 8, Seed: seed},
		"semantic+sampling": {Semantic: true, Plan: plan, SampleRate: 0.5, Seed: seed},
		"semantic+delay":    {Semantic: true, Plan: plan, DelayPeriod: 2, Seed: seed},
		"semantic+quant+ef": {Semantic: true, Plan: plan, QuantBits: 4, ErrorFeedback: true, Seed: seed},
	}
}
