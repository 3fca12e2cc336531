package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"scgnn/internal/core"
)

// goldenLine renders per-epoch losses as exact bit patterns plus total bytes.
func goldenLine(losses []float64, bytes int64) string {
	var sb strings.Builder
	for _, l := range losses {
		fmt.Fprintf(&sb, "%016x ", math.Float64bits(l))
	}
	fmt.Fprintf(&sb, "%d", bytes)
	return sb.String()
}

// TestEngineGoldenBits: a 4-epoch dist.Run must reproduce, bit for bit, the
// losses and byte totals recorded at the commit before the exchange core was
// extracted, at Workers 1 and 8. Between them the three method stacks drive
// every stateful stream (edge coins, node coins, fixed and adaptive widths,
// error feedback, delay slots); internal/worker pins the same three.
func TestEngineGoldenBits(t *testing.T) {
	plan := core.PlanConfig{Grouping: core.GroupingConfig{Seed: 3}}
	d, part := smallSetup(t)
	for _, tc := range []struct {
		name, want string
		cfg        Config
	}{
		{"vanilla", "3fee229af17bdf65 3fecb46fca9d9fac 3feb38bd502bee54 3fe9b15b8c256907 305536", Config{Seed: 3}},
		{"semantic+sampling+q8ef", "3ff0022a2d3e9e62 3fee8dcdf8cdbc87 3fec894fc9f5258e 3feade723000509a 15672",
			Config{Semantic: true, Plan: plan, SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 3}},
		{"nsampling+aquant+delay", "3feda5738aca86e1 3feca54c68a53fa3 3fead31544947bb0 3fe9a8d1bcbc6726 52886",
			Config{SampleRate: 0.5, SampleNodes: true, QuantBits: 8, AdaptiveQuant: true, DelayPeriod: 2, Seed: 3}},
	} {
		for _, workers := range []int{1, 8} {
			tc.cfg.Workers = workers
			res := Run(d, part, 3, tc.cfg, RunConfig{Epochs: 4, Hidden: 8, Seed: 1})
			var losses []float64
			var bytes int64
			for _, ep := range res.Epochs {
				losses = append(losses, ep.Loss)
				bytes += ep.Bytes
			}
			if got := goldenLine(losses, bytes); got != tc.want {
				t.Errorf("%s workers=%d:\n got  %s\n want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}
