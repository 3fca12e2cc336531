package exp

import (
	"fmt"
	"sort"

	"scgnn/internal/core"
	"scgnn/internal/dist"
	"scgnn/internal/exchange"
)

// Lanes is the named method-combination registry the sweep experiments draw
// their configuration lists from. It carries every exchange.MethodMatrix
// combination under its matrix name (the coverage is locked by
// TestLanesCoverMethodMatrix) plus the figure-specific compositions the
// matrix does not, so abl-codec, fig12b and abl-sched assemble their sweeps
// from one table instead of repeating dist.Config literals.
func Lanes(seed int64) map[string]dist.Config {
	plan := core.PlanConfig{Grouping: core.GroupingConfig{Seed: seed}}
	lanes := exchange.MethodMatrix(seed)
	for name, cfg := range map[string]dist.Config{
		"quant4":          {QuantBits: 4, Seed: seed},
		"quant4+adaptive": {QuantBits: 4, AdaptiveQuant: true, Seed: seed},
		"semantic+quant4": {Semantic: true, Plan: plan, QuantBits: 4, Seed: seed},
		"sampling+quant8": {SampleRate: 0.5, QuantBits: 8, Seed: seed},
		"sampling+delay2": {SampleRate: 0.5, DelayPeriod: 2, Seed: seed},
		"quant8+delay2":   {QuantBits: 8, DelayPeriod: 2, Seed: seed},
	} {
		if _, dup := lanes[name]; dup {
			panic(fmt.Sprintf("exp: lane %q shadows a method-matrix combination", name))
		}
		lanes[name] = cfg
	}
	return lanes
}

// laneList resolves lane names against Lanes(seed) in the given order. Sweep
// lists are code, not input, so an unknown name panics.
func laneList(seed int64, names ...string) []dist.Config {
	lanes := Lanes(seed)
	out := make([]dist.Config, len(names))
	for i, name := range names {
		cfg, ok := lanes[name]
		if !ok {
			panic(fmt.Sprintf("exp: unknown lane %q", name))
		}
		out[i] = cfg
	}
	return out
}

// matrixLaneNames returns the exchange.MethodMatrix combination names in sorted
// order — the canonical iteration order for full-matrix sweeps.
func matrixLaneNames(seed int64) []string {
	matrix := exchange.MethodMatrix(seed)
	names := make([]string, 0, len(matrix))
	for name := range matrix {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
