package worker

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/exchange"
	"scgnn/internal/gnn"
	"scgnn/internal/nn"
)

// TestClusterGoldenBits: 4 training epochs on a two-worker cluster must
// reproduce, bit for bit, the losses and wire bytes recorded at the commit
// before the exchange core was extracted (nparts = 2 was schedule-free even
// then: each worker has a single inbound batch). Same three method stacks as
// dist's TestEngineGoldenBits, and re-recorded at the same change for the
// same reason: once layer 0's backward exchange stopped, the byte totals fell
// (vanilla 385728 → 303072, losses unchanged) and the sampled stacks' losses
// moved after epoch 0 (after epoch 1 under the delay). The byte totals were
// re-recorded once more, losses again unchanged, when messages lost their
// 16-byte headers to one batch header per non-empty frame (vanilla 303072 →
// 193200: 6888 messages, 24 frames). Everything was re-recorded once more
// when the [5, 8, 3] model's output layer began multiplying by W before its
// aggregate, so its forward and backward rounds ship 3 columns instead of 8
// (vanilla 193200 → 101360; on the exact aggregator the losses of the two
// sides agree to 3e-16 relative, and here the fp32 and quantised payloads
// round different values). The byte totals alone moved again, losses
// unchanged, when layer 0 began keeping its Agg(X) on a reproducible
// exchange: vanilla ships layer 0's forward round in epoch 0 only, 101360 →
// 66836, three of its rounds fewer (asserted below against uncached, the
// total of a run that ships it every epoch); the sampled stacks are not
// reproducible and ship it every epoch still. The two sampled stacks alone
// were re-recorded, losses and bytes, when a sampling coin became a pure
// function of (pair seed, epoch, round, key) in place of two stateful streams
// (semantic+sampling+q8ef 1176 → 1279, nsampling+aquant+delay 21383 →
// 21111); vanilla did not move. The byte totals alone moved again, losses
// unchanged, when the baseline exchange began shipping a boundary row once
// per peer and fanning it out at the receiver in place of one message per
// cross arc (vanilla 66836 → 15100, uncached 101360 → 22864;
// nsampling+aquant+delay 21111 → 4767).
func TestClusterGoldenBits(t *testing.T) {
	plan := core.PlanConfig{Grouping: core.GroupingConfig{Seed: 3}}
	cases := []struct {
		name, want string
		uncached   int64
		cfg        exchange.Config
	}{
		{"vanilla", "3ff38cd2dc4e265e 3ff2603cf6a068db 3ff183ea38523da5 3ff0d7ac59473869 15100", 22864, exchange.Config{Seed: 3}},
		{"semantic+sampling+q8ef", "3ff33ba284de033f 3ff1cfd777c6f2d5 3ff23194f47dff6d 3ff148d1879dce9f 1279", 1279,
			exchange.Config{Semantic: true, Plan: plan, SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 3}},
		{"nsampling+aquant+delay", "3ff3b296a407120a 3ff2c25cbd7b1c78 3ff1f81a9e51fd6e 3ff16fcfbc61a908 4767", 4767,
			exchange.Config{SampleRate: 0.5, SampleNodes: true, QuantBits: 8, AdaptiveQuant: true, DelayPeriod: 2, Seed: 3}},
	}
	d, part := setup(t, 2)
	for _, tc := range cases {
		// Layer 0 aggregates X first ([5, 8, 3]: 2·8 ≥ 5), so its forward
		// round is one round over the features.
		var layer0 int64
		if tc.name == "vanilla" {
			c := NewClusterFromConfig(d.Graph, part, 2, tc.cfg)
			c.Forward(d.Features)
			layer0, _ = c.Traffic()
		}
		c := NewClusterFromConfig(d.Graph, part, 2, tc.cfg)
		model := gnn.NewGCN(c, []int{d.FeatureDim(), 8, d.NumClasses}, rand.New(rand.NewSource(1)))
		opt := nn.NewAdam(0.02)
		var sb strings.Builder
		for epoch := 0; epoch < 4; epoch++ {
			model.StartEpoch(epoch)
			logits := model.Forward(d.Features)
			loss, grad := nn.MaskedCrossEntropy(logits, d.Labels, d.TrainMask)
			model.ZeroGrad()
			model.Backward(grad)
			opt.Step(model.Params())
			fmt.Fprintf(&sb, "%016x ", math.Float64bits(loss))
		}
		bytes, _ := c.Traffic()
		c.Close()
		fmt.Fprintf(&sb, "%d", bytes)
		if got := sb.String(); got != tc.want {
			t.Errorf("%s:\n got  %s\n want %s", tc.name, got, tc.want)
		}
		if tc.uncached-bytes != 3*layer0 {
			t.Errorf("%s: %d B, the uncached run's %d B less three layer-0 rounds of %d B", tc.name, bytes, tc.uncached, layer0)
		}
	}
}
