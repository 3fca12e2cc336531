package worker

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"

	"scgnn/internal/exchange"
	"scgnn/internal/sched"
	"scgnn/internal/tensor"
)

// freshEncodePeer is encodePeer without the sender memo: every unit's payload
// is built, ranged, levelled and packed on its own. It is the encoder the
// memo is held to, byte for byte and stream for stream.
func (x *exchanger) freshEncodePeer(me, peer int, h *tensor.Matrix, backward bool) []byte {
	ws := x.ws[me]
	batch := &ws.batches[peer]
	idx := me*x.core.NParts + peer
	if backward {
		idx = peer*x.core.NParts + me
	}
	frame := x.frame(idx, me, h.Cols)
	batch.Begin(frame)
	payload := ws.payload[:h.Cols]
	ws.msg.Payload = payload
	ps := &x.core.Pairs[idx]
	enc, _ := x.groupPlans(idx, backward)
	x.core.Walk(idx, backward, x.epoch, x.round, func(u exchange.Unit) {
		if u.Group < 0 {
			scale := x.core.Coeff[u.Sender] * u.Scale
			for i, v := range h.Row(int(x.rowOf[u.Sender])) {
				payload[i] = scale * v
			}
		} else {
			clear(payload)
			rows, w := enc.Group(int(u.Group))
			tensor.GatherAXPY(payload, h, rows, w, u.Scale)
		}
		if frame.Sampled {
			batch.Present(int(u.Index))
		}
		x.addMsg(ws, batch, ps, u.Index)
	})
	return batch.Bytes()
}

// encodeRound runs one round's send side on x with encode — every frame of
// every worker, in worker then peer order, copied out — and no receive side:
// what a frame holds depends on the round's input and the pair streams
// alone. A delayed-transmission replay encodes nothing and returns nil.
func encodeRound(t *testing.T, x *exchanger, h *tensor.Matrix, backward bool, encode func(me, peer int) []byte) [][]byte {
	t.Helper()
	out := tensor.New(h.Rows, h.Cols)
	target, replay, err := x.beginRound(out, h)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for me := 0; !replay && me < x.core.NParts; me++ {
		x.ws[me].ensure(h.Cols)
		for peer := 0; peer < x.core.NParts; peer++ {
			if peer != me {
				frames = append(frames, bytes.Clone(encode(me, peer)))
			}
		}
	}
	if err := x.endRound(target, out, replay, nil); err != nil {
		t.Fatal(err)
	}
	return frames
}

// pairStreams is what a round leaves in a pair's streams that a later frame
// can depend on, with every float as its bit pattern.
type pairStreams struct {
	bits                   int
	residuals              map[int64][]uint64
	corrected              int64
	adaptiveSum, adaptiveN int64
}

// streamState snapshots every pair's streams of c: error-feedback residuals
// and correction count, adaptive width tallies, and the rung's width.
func streamState(c *Cluster) []pairStreams {
	out := make([]pairStreams, len(c.core.Pairs))
	for idx, ps := range c.core.Pairs {
		s := &out[idx]
		s.bits = ps.Bits
		if ps.EF != nil {
			s.residuals, s.corrected = make(map[int64][]uint64), ps.EF.Corrected
			for k, v := range ps.EF.Snapshot() {
				for _, x := range v {
					s.residuals[k] = append(s.residuals[k], math.Float64bits(x))
				}
			}
		}
		if ps.Adaptive != nil {
			s.adaptiveSum, s.adaptiveN = ps.Adaptive.BitsSum, ps.Adaptive.Calls
		}
	}
	return out
}

// TestEncodeOnceEqualsFresh: on every per-arc lane, a sender's later arcs into
// a peer copy its first message's bytes, and every frame of six epochs —
// forward and backward rounds of two widths — equals the one a fresh encode
// of every unit writes, byte for byte, while the pair streams (error-feedback
// residuals and correction counts, adaptive width tallies, scheduled rungs)
// stay equal after every round. The memo must have repeated a message on
// every lane, and on sampling+q8+EF, where dropped arcs leave a sender's
// units different residuals, it must also have refused one. On q8+EF and
// sched(q8+EF) both runtimes restore their streams from a snapshot at the
// boundary before epoch 3, as a resumed run does: the frames still match, and
// the restored store shares records again, so the first round after the
// restore repeats as often as a third, unrestored run's.
func TestEncodeOnceEqualsFresh(t *testing.T) {
	d, part := setup(t, 3)
	n := d.NumNodes()
	sched := sched.Policy{Enabled: true, EpochsPerLevel: 1}
	lanes := []struct {
		name                string
		cfg                 exchange.Config
		mustRefuse, restore bool
	}{
		{"vanilla", exchange.Config{}, false, false},
		{"q8", exchange.Config{QuantBits: 8}, false, false},
		{"q4", exchange.Config{QuantBits: 4}, false, false},
		{"adaptive", exchange.Config{QuantBits: 8, AdaptiveQuant: true}, false, false},
		{"sampling", exchange.Config{SampleRate: 0.5, Seed: 7}, false, false},
		{"nsampling", exchange.Config{SampleRate: 0.5, SampleNodes: true, Seed: 7}, false, false},
		{"q8+ef", exchange.Config{QuantBits: 8, ErrorFeedback: true}, false, true},
		{"sampling+q8+ef", exchange.Config{SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 7}, true, false},
		{"delay2", exchange.Config{DelayPeriod: 2}, false, false},
		{"sched(q8+ef)", exchange.Config{QuantBits: 8, ErrorFeedback: true, Sched: sched}, false, true},
	}
	// An epoch's rounds: a 6-wide and a 4-wide layer forward, then backward.
	rounds := []struct {
		width    int
		backward bool
	}{{6, false}, {4, false}, {4, true}, {6, true}}
	for _, lane := range lanes {
		t.Run(lane.name, func(t *testing.T) {
			got := NewClusterFromConfig(d.Graph, part, 3, lane.cfg)
			want := NewClusterFromConfig(d.Graph, part, 3, lane.cfg)
			plain := NewClusterFromConfig(d.Graph, part, 3, lane.cfg)
			var levels [][]int
			for epoch := 0; epoch < 6; epoch++ {
				if lane.restore && epoch == 3 {
					for _, c := range []*Cluster{got, want} {
						if err := c.core.Restore(c.core.State()); err != nil {
							t.Fatal(err)
						}
					}
				}
				got.StartEpoch(epoch)
				want.StartEpoch(epoch)
				plain.StartEpoch(epoch)
				levels = append(levels, got.ScheduleLevels())
				for r, round := range rounds {
					h := randMat(n, round.width, int64(100*epoch+r))
					before := [2]int64{repeats(got), repeats(plain)}
					gotFrames := encodeRound(t, &got.exchanger, h, round.backward, func(me, peer int) []byte {
						return got.encodePeer(me, peer, h, round.backward)
					})
					if lane.restore {
						encodeRound(t, &plain.exchanger, h, round.backward, func(me, peer int) []byte {
							return plain.encodePeer(me, peer, h, round.backward)
						})
						if g, p := repeats(got)-before[0], repeats(plain)-before[1]; epoch == 3 && r == 0 && g != p {
							t.Fatalf("the first round after the restore repeated %d messages, an unrestored run %d", g, p)
						}
					}
					wantFrames := encodeRound(t, &want.exchanger, h, round.backward, func(me, peer int) []byte {
						return want.freshEncodePeer(me, peer, h, round.backward)
					})
					if len(gotFrames) != len(wantFrames) {
						t.Fatalf("epoch %d round %d: %d frames, the fresh encode wrote %d", epoch, r, len(gotFrames), len(wantFrames))
					}
					for i := range wantFrames {
						if !bytes.Equal(gotFrames[i], wantFrames[i]) {
							t.Fatalf("epoch %d round %d: frame %d differs from the fresh encode", epoch, r, i)
						}
					}
					if g, w := streamState(got), streamState(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("epoch %d round %d: pair streams differ from the fresh encode", epoch, r)
					}
				}
			}
			var refused int64
			for _, ws := range got.ws {
				refused += ws.memo.refused
			}
			repeated := repeats(got)
			t.Logf("%d messages repeated, %d refused", repeated, refused)
			if repeated == 0 {
				t.Fatal("the memo never repeated a message")
			}
			if lane.mustRefuse && refused == 0 {
				t.Fatal("the memo never refused a sender whose residuals diverged")
			}
			if lane.cfg.Sched.Enabled && !slices.ContainsFunc(levels[1:], func(l []int) bool { return !slices.Equal(l, levels[0]) }) {
				t.Fatalf("the rungs never changed: %v", levels)
			}
		})
	}
}

// repeats is the number of messages c's workers' memos have repeated.
func repeats(c *Cluster) int64 {
	var n int64
	for _, ws := range c.ws {
		n += ws.memo.repeated
	}
	return n
}
