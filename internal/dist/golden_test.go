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
// recorded losses and byte totals at Workers 1 and 8. The losses were
// re-recorded once, when the engine moved onto the wire's quantisation grid
// and began rounding plain payloads to fp32 (they moved at ≈1e-8 relative).
// Every byte total was re-recorded once more when the models stopped
// computing ∂L/∂X at layer 0, which removed the epoch's last round, layer 0's
// backward exchange: vanilla 305536 → 236096, its losses unchanged. The two
// sampled stacks kept epoch 0's loss (epochs 0–1 under the delay's replay)
// and moved after it, because the dropped round's coins no longer come out
// of the per-pair streams. Between them the three method stacks drive every
// stateful stream (edge coins, node coins, fixed and adaptive widths, error
// feedback, delay slots); internal/worker pins the same three.
func TestEngineGoldenBits(t *testing.T) {
	plan := core.PlanConfig{Grouping: core.GroupingConfig{Seed: 3}}
	d, part := smallSetup(t)
	for _, tc := range []struct {
		name, want string
		cfg        Config
	}{
		{"vanilla", "3fee229af1494765 3fecb46fcaafb403 3feb38bd5045dbb7 3fe9b15b8bed4600 236096", Config{Seed: 3}},
		{"semantic+sampling+q8ef", "3ff0022a2d3785ba 3fee376efd938b2a 3fed59e52997119c 3febe712ff609799 11826",
			Config{Semantic: true, Plan: plan, SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 3}},
		{"nsampling+aquant+delay", "3feda5738a3f6b2a 3feca54c6825529c 3febf072ecfaadd0 3feabea92be99968 40348",
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
