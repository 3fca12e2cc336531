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
// 193200: 6888 messages, 24 frames).
func TestClusterGoldenBits(t *testing.T) {
	plan := core.PlanConfig{Grouping: core.GroupingConfig{Seed: 3}}
	cases := []struct {
		name, want string
		cfg        exchange.Config
	}{
		{"vanilla", "3ff38cd2dc9a6931 3ff2603cf6a3b9ca 3ff183ea3856313e 3ff0d7ac595c1054 193200", exchange.Config{Seed: 3}},
		{"semantic+sampling+q8ef", "3ff2c68b718bec3e 3ff21f52c5fa3413 3ff1b6e67d4b831f 3ff108d95ea919be 1411",
			exchange.Config{Semantic: true, Plan: plan, SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 3}},
		{"nsampling+aquant+delay", "3ff3eed781ab2dc0 3ff2d6b64ace82e7 3ff19f5a489ad32f 3ff10aeeb40d2f71 24585",
			exchange.Config{SampleRate: 0.5, SampleNodes: true, QuantBits: 8, AdaptiveQuant: true, DelayPeriod: 2, Seed: 3}},
	}
	d, part := setup(t, 2)
	for _, tc := range cases {
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
	}
}
