package worker

import (
	"encoding/binary"
	"errors"
	"testing"

	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/tensor"
	"scgnn/internal/wire"
)

// chainGraph is four 16-node rings, ring b joined to ring b+1 by an arc each
// way from its first 13 nodes: adjacent partitions exchange 13 candidates a
// round (not a whole number of bitmap bytes), the others none.
func chainGraph() (*graph.Graph, []int) {
	const ring, cross = 16, 13
	var arcs []graph.Edge
	part := make([]int, 4*ring)
	for u := range part {
		b := u / ring
		part[u] = b
		v := int32(b*ring + (u+1)%ring)
		arcs = append(arcs, graph.Edge{U: int32(u), V: v}, graph.Edge{U: v, V: int32(u)})
		if b < 3 && u%ring < cross {
			w := int32(u + ring)
			arcs = append(arcs, graph.Edge{U: int32(u), V: w}, graph.Edge{U: w, V: int32(u)})
		}
	}
	return graph.New(len(part), arcs), part
}

// frameLanes are the configurations the decode-seam tests run. A tampered
// slot is read in the round's second fork-join, after every sender has
// written its own.
func frameLanes() map[string]exchange.Config {
	return map[string]exchange.Config{
		"vanilla":   {},
		"semantic":  {Semantic: true},
		"quant8":    {QuantBits: 8},
		"aquant":    {QuantBits: 8, AdaptiveQuant: true},
		"sampling":  {SampleRate: 0.5, Seed: 3},
		"nsampling": {Semantic: true, SampleRate: 0.5, SampleNodes: true, Seed: 3},
	}
}

// tamperFrame makes every later round of c deliver edit(frame) to receiver in
// place of sender's frame: the phase hook rewrites the slot once sender's send
// half has filled it, on the goroutine that owns the slot until the join.
func tamperFrame(c *Cluster, receiver, sender int, edit func(frame []byte) []byte) {
	c.phaseHook = func(worker int, phase string) {
		if worker == sender && phase == "send" {
			slot := &c.slots[receiver*c.core.NParts+sender]
			*slot = edit(append([]byte(nil), *slot...))
		}
	}
}

// TestDecodeSeamRefusesHostileFrames: every way a frame can disagree with the
// header its pair derives, or with the wire format, is an ErrCorruptFrame
// error from the round (wrapping wire.ErrMalformed where the bytes themselves
// are not a frame), never a panic, and it poisons the cluster. Frames travel
// from worker 1 to worker 0 — pair (1→0) has 13 candidates — except where the
// case names worker 3, whose pair into 0 has none. A baseline pair's
// candidates are stars of one arc each here, so under edge sampling a star
// the sender dropped has no surviving arc, and a frame that marks one present
// is refused even when its bitmap and messages agree.
func TestDecodeSeamRefusesHostileFrames(t *testing.T) {
	g, part := chainGraph()
	h := randMat(g.NumNodes(), 3, 31)
	put := func(off int, v uint32) func(clean, f []byte) []byte {
		return func(_, f []byte) []byte { binary.LittleEndian.PutUint32(f[off:], v); return f }
	}
	bitmap := func(f []byte) []byte { return f[wire.FrameHeaderBytes : wire.FrameHeaderBytes+2] }
	// flip turns the first bitmap bit below the count that is (not) set.
	flip := func(set bool) func(clean, f []byte) []byte {
		return func(_, f []byte) []byte {
			for i := 0; i < 13; i++ {
				if bm := bitmap(f); (bm[i/8]>>(i%8)&1 == 1) == set {
					bm[i/8] ^= 1 << (i % 8)
					return f
				}
			}
			panic("the sampled frame kept all or none of its candidates")
		}
	}
	// swap marks the first dropped candidate present and the first kept one
	// absent: as many messages as bits, one of them for a dead star.
	swap := func(_, f []byte) []byte { swapPresence(bitmap(f)); return f }
	for _, tc := range []struct {
		name, lane string
		sender     int
		malformed  bool
		edit       func(clean, f []byte) []byte
	}{
		{"truncated batch header", "vanilla", 1, true, func(_, f []byte) []byte { return f[:5] }},
		{"sender other than the slot's", "semantic", 1, false, put(2, 2)},
		{"width other than the round's", "vanilla", 1, false, put(6, 4)},
		{"count other than the pair's candidates", "vanilla", 1, false, put(10, 14)},
		{"bitmap popcount over the messages", "nsampling", 1, true, flip(false)},
		{"star present with no surviving arc", "sampling", 1, false, swap},
		{"bitmap popcount under the messages", "sampling", 1, true, flip(true)},
		{"bitmap bit past the count", "sampling", 1, true, func(_, f []byte) []byte { bitmap(f)[1] |= 0x80; return f }},
		{"trailing bytes", "vanilla", 1, true, func(_, f []byte) []byte { return append(f, 0) }},
		{"bits 0 on a quantised frame", "quant8", 1, false, func(_, f []byte) []byte { f[0] = 0; return f }},
		{"bits 17 on a quantised frame", "quant8", 1, true, func(_, f []byte) []byte { f[0] = 17; return f }},
		{"adaptive width byte past the bound", "aquant", 1, true, func(_, f []byte) []byte {
			f[wire.FrameHeaderBytes+8] = 9
			return f
		}},
		{"adaptive flag off an adaptive pair", "aquant", 1, false, func(_, f []byte) []byte {
			f[1] &^= wire.FlagAdaptive
			return f
		}},
		{"empty frame for a pair with candidates", "vanilla", 1, false, func(_, _ []byte) []byte { return nil }},
		{"frame for a pair with no candidates", "vanilla", 3, false, func(clean, _ []byte) []byte {
			f := append([]byte(nil), clean...)
			binary.LittleEndian.PutUint32(f[2:], 3)
			return f
		}},
	} {
		c := NewClusterFromConfig(g, part, 4, frameLanes()[tc.lane])
		out := tensor.New(g.NumNodes(), 3)
		if err := c.AggregateInto(out, h, false); err != nil {
			t.Fatalf("%s: clean round: %v", tc.name, err)
		}
		// Worker 1's frame for worker 0 in the clean round, copied before the
		// next send half reuses its bytes.
		clean := append([]byte(nil), c.slots[1]...)
		tamperFrame(c, 0, tc.sender, func(f []byte) []byte { return tc.edit(clean, f) })
		err := c.AggregateInto(out, h, false)
		if !errors.Is(err, ErrCorruptFrame) || errors.Is(err, wire.ErrMalformed) != tc.malformed {
			t.Fatalf("%s: round returned %v (malformed %v)", tc.name, err, tc.malformed)
		}
		if again := c.AggregateInto(out, h, false); again != err {
			t.Fatalf("%s: cluster not poisoned: %v", tc.name, again)
		}
	}
}

// TestPeerRefusesForeignSender: a peer decodes a frame as coming from the
// sender its transport names, so a batch header naming another — peer 1's
// frame relabelled as peer 2's — is refused, and poisons the peer.
func TestPeerRefusesForeignSender(t *testing.T) {
	g, part := chainGraph()
	cfg := frameLanes()["vanilla"]
	h := randMat(g.NumNodes(), 3, 32)
	c := NewClusterFromConfig(g, part, 4, cfg)
	var genuine []byte
	tamperFrame(c, 0, 1, func(f []byte) []byte { genuine = f; return f })
	if err := c.AggregateInto(tensor.New(g.NumNodes(), 3), h, false); err != nil {
		t.Fatal(err)
	}
	peer, err := NewPeer(g, part, 4, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	own := peer.Own()
	h0 := tensor.New(len(own), 3)
	for k, u := range own {
		copy(h0.Row(k), h.Row(int(u)))
	}
	for _, sender := range []uint32{1, 2} {
		f := append([]byte(nil), genuine...)
		binary.LittleEndian.PutUint32(f[2:], sender)
		from := 0
		recv := func() (int, []byte, error) {
			if from++; from == 1 {
				return 1, f, nil
			}
			return from, nil, nil
		}
		send := func(int, []byte) error { return nil }
		err := peer.Round(h0, tensor.New(len(own), 3), false, send, recv)
		if (sender == 1) != (err == nil) || err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("header sender %d from transport sender 1: %v", sender, err)
		}
	}
	if err := peer.Round(h0, tensor.New(len(own), 3), false, nil, nil); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("peer not poisoned: %v", err)
	}
}

// deadStarFrame is worker 1's forward frame for worker 0 on the sampling lane
// with the presence of its first kept and first dropped star swapped: a frame
// of consistent length whose bitmap marks a star none of whose arcs survives.
func deadStarFrame(g *graph.Graph, part []int, h *tensor.Matrix) []byte {
	c := NewClusterFromConfig(g, part, 4, frameLanes()["sampling"])
	defer c.Close()
	if err := c.AggregateInto(tensor.New(g.NumNodes(), h.Cols), h, false); err != nil {
		panic(err)
	}
	f := append([]byte(nil), c.slots[1]...)
	swapPresence(f[wire.FrameHeaderBytes:])
	return f
}

// swapPresence flips the first set and the first clear bit of a 13-candidate
// presence bitmap.
func swapPresence(bm []byte) {
	first := [2]int{-1, -1} // the first clear bit, the first set one
	for i := 12; i >= 0; i-- {
		first[bm[i/8]>>(i%8)&1] = i
	}
	if first[0] < 0 || first[1] < 0 {
		panic("the sampled frame kept all or none of its candidates")
	}
	for _, i := range first {
		bm[i/8] ^= 1 << (i % 8)
	}
}

// FuzzDecodeBatch plants arbitrary bytes as worker 1's frame for worker 0 of
// a 4-part cluster, on the lane and in the direction the first byte picks:
// the round must end cleanly or in an ErrCorruptFrame error, never a panic.
// Seeds are each lane's genuine frames, both directions, and a few hostile
// shapes.
func FuzzDecodeBatch(f *testing.F) {
	g, part := chainGraph()
	h := randMat(g.NumNodes(), 3, 33)
	out := tensor.New(g.NumNodes(), 3)
	names := []string{"vanilla", "semantic", "quant8", "aquant", "sampling", "nsampling"}
	var planted []byte
	clusters := make([]*Cluster, len(names))
	for i, name := range names {
		c := NewClusterFromConfig(g, part, 4, frameLanes()[name])
		clusters[i] = c
		for _, backward := range []bool{false, true} {
			tamperFrame(c, 0, 1, func(f []byte) []byte { planted = f; return f })
			if err := c.AggregateInto(out, h, backward); err != nil {
				f.Fatal(err)
			}
			lane := byte(i)
			if backward {
				lane |= 0x80
			}
			f.Add(lane, planted)
			if len(planted) > 0 {
				f.Add(lane, planted[:len(planted)-1])
				f.Add(lane, append(append([]byte(nil), planted...), 0xff))
			}
		}
		tamperFrame(c, 0, 1, func([]byte) []byte { return planted })
	}
	f.Add(byte(0), []byte{0xff, 0xee, 0xdd})
	f.Add(byte(4), deadStarFrame(g, part, h))
	f.Fuzz(func(t *testing.T, lane byte, data []byte) {
		c := clusters[int(lane&0x7f)%len(clusters)]
		c.err = nil // each input gets a healthy cluster, at the epoch's first round
		c.StartEpoch(0)
		planted = data
		if err := c.AggregateInto(out, h, lane&0x80 != 0); err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("round returned %v", err)
		}
	})
}
