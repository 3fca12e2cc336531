package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/pool"
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

// layer0Bytes is the traffic of one forward round over d's features on a
// fresh engine: layer 0's forward round when it aggregates first.
func layer0Bytes(d *datasets.Dataset, part []int, nparts int, cfg Config) int64 {
	e := NewEngine(d.Graph, part, nparts, cfg)
	e.StartEpoch(0)
	e.Forward(d.Features)
	return e.CaptureEpoch().TotalBytes
}

// TestEngineGoldenBits: a 4-epoch dist.Run must reproduce, bit for bit, the
// recorded losses and byte totals at GOMAXPROCS 1 and 8. The losses were
// re-recorded once, when the engine moved onto the wire's quantisation grid
// and began rounding plain payloads to fp32 (they moved at ≈1e-8 relative).
// Every byte total was re-recorded once more when the models stopped
// computing ∂L/∂X at layer 0, which removed the epoch's last round, layer 0's
// backward exchange: vanilla 305536 → 236096, its losses unchanged. The two
// sampled stacks kept epoch 0's loss (epochs 0–1 under the delay's replay)
// and moved after it, because the dropped round's coins no longer come out
// of the per-pair streams. The byte totals alone were re-recorded again when
// messages lost their 16-byte headers to one batch header per non-empty frame
// (vanilla 236096 → 153776). Losses and bytes were re-recorded together once
// the [6, 8, 3] model's output layer multiplied by W before its aggregate,
// shipping 3 columns instead of 8 in two of the epoch's three rounds (vanilla
// 153776 → 84336; the two sides' losses on the exact aggregator agree to
// 3e-16 relative). The losses were re-recorded once more when the loss took
// one exp a logit (softmax as exp(l − max)/sum, not the exponentiated
// log-softmax): only the sampled semantic stack's last epoch moved, by 2 ulps.
// The byte totals alone moved once more, losses unchanged, when layer 0 began
// keeping its Agg(X) on a reproducible exchange: vanilla ships layer 0's
// forward round in epoch 0 only, 84336 → 52836, three rounds of layer0Bytes
// fewer than uncached, the total of a run that ships it every epoch; the
// sampled stacks are not reproducible and did not move. The two sampled
// stacks alone were re-recorded, losses and bytes, when a sampling coin
// became a pure function of (pair seed, epoch, round, key) in place of two
// stateful streams (semantic+sampling+q8ef 5644 → 5675, nsampling+aquant+delay
// 16744 → 16250); vanilla did not move. The byte totals alone moved again,
// losses unchanged, when the baseline exchange began shipping a boundary row
// once per peer and fanning it out at the receiver in place of one message
// per cross arc (vanilla 52836 → 19356, uncached 84336 → 30768;
// nsampling+aquant+delay 16250 → 6243).
// Between them the three method stacks drive every
// kind of per-pair state (edge coins, node coins, fixed and adaptive widths,
// error feedback, delay slots); internal/worker pins the same three.
func TestEngineGoldenBits(t *testing.T) {
	plan := core.PlanConfig{Grouping: core.GroupingConfig{Seed: 3}}
	d, part := smallSetup(t)
	for _, tc := range []struct {
		name, want string
		uncached   int64
		cfg        Config
	}{
		{"vanilla", "3fee229af1c25da5 3fecb46fcaaef361 3feb38bd50296ce0 3fe9b15b8bd5815d 19356", 30768, Config{Seed: 3}},
		{"semantic+sampling+q8ef", "3fee720ed8fcca15 3fed3e864dbc2635 3fec405ae4b32cd0 3fec1c38d6f57bd8 5675", 5675,
			Config{Semantic: true, Plan: plan, SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 3}},
		{"nsampling+aquant+delay", "3fee4ad9faaf5cc7 3fed4e68a2db650c 3feb51df2c3e7c35 3fea5b51d1c25c82 6243", 6243,
			Config{SampleRate: 0.5, SampleNodes: true, QuantBits: 8, AdaptiveQuant: true, DelayPeriod: 2, Seed: 3}},
	} {
		var layer0 int64
		if tc.name == "vanilla" {
			layer0 = layer0Bytes(d, part, 3, tc.cfg)
		}
		for _, procs := range []int{1, 8} {
			pool.SetProcs(t, procs)
			res := mustRun(t, d, part, 3, tc.cfg, RunConfig{Epochs: 4, Hidden: 8, Seed: 1})
			var losses []float64
			var bytes int64
			for _, ep := range res.Epochs {
				losses = append(losses, ep.Loss)
				bytes += ep.Bytes
			}
			if got := goldenLine(losses, bytes); got != tc.want {
				t.Errorf("%s procs=%d:\n got  %s\n want %s", tc.name, procs, got, tc.want)
			}
			if tc.uncached-bytes != 3*layer0 {
				t.Errorf("%s procs=%d: %d B, the uncached run's %d B less three layer-0 rounds of %d B",
					tc.name, procs, bytes, tc.uncached, layer0)
			}
		}
	}
}
