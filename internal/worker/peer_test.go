package worker

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scgnn/internal/compress"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
)

// peerMesh drives nparts driven Peers in lockstep rounds over buffered
// channels — the in-process stand-in for the socket transport, with the same
// deterministic discipline internal/net uses: frames are received in
// ascending sender order, so decode order (and therefore every fp64 row sum)
// is reproducible run over run.
type peerMesh struct {
	peers []*Peer
	dim   int
	// h and out are each peer's retained shard matrices: row k is the peer's
	// Own()[k] (the coordinator's scatter and gather).
	h, out []*tensor.Matrix
	chans  [][]chan []byte // chans[s][t]: frames from s to t
	fabric *simnet.Fabric
}

func newPeerMesh(t *testing.T, peers []*Peer, dim int) *peerMesh {
	t.Helper()
	np := len(peers)
	m := &peerMesh{
		peers:  peers,
		dim:    dim,
		fabric: simnet.NewFabric(np),
	}
	m.chans = make([][]chan []byte, np)
	for s := 0; s < np; s++ {
		m.chans[s] = make([]chan []byte, np)
		for d := 0; d < np; d++ {
			m.chans[s][d] = make(chan []byte, np)
		}
	}
	m.h = make([]*tensor.Matrix, np)
	m.out = make([]*tensor.Matrix, np)
	return m
}

// scatter copies each peer's owned rows of h into its shard matrix (the
// coordinator's per-node scatter), sizing the shard matrices to the current
// partition.
func (m *peerMesh) scatter(h *tensor.Matrix) {
	for p, peer := range m.peers {
		own := peer.Own()
		if m.h[p] == nil || m.h[p].Rows != len(own) {
			m.h[p], m.out[p] = tensor.New(len(own), m.dim), tensor.New(len(own), m.dim)
		}
		for k, u := range own {
			copy(m.h[p].Row(k), h.Row(int(u)))
		}
	}
}

// round runs one lockstep aggregate round on every peer and folds each
// peer's tally into the mesh fabric.
func (m *peerMesh) round(t *testing.T, backward bool) error {
	t.Helper()
	np := len(m.peers)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			next := 0
			recv := func() (int, []byte, error) {
				if next == p {
					next++
				}
				buf := <-m.chans[next][p]
				next++
				return next - 1, buf, nil
			}
			send := func(peer int, frame []byte) error {
				m.chans[p][peer] <- append([]byte(nil), frame...)
				return nil
			}
			errs[p] = m.peers[p].Round(m.h[p], m.out[p], backward, send, recv)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for p, peer := range m.peers {
		m.fabric.Fold(p, peer.Tally())
	}
	return nil
}

// gather assembles the global aggregate from each peer's owned out rows.
func (m *peerMesh) gather(dst *tensor.Matrix) {
	for p, peer := range m.peers {
		for k, u := range peer.Own() {
			copy(dst.Row(int(u)), m.out[p].Row(k))
		}
	}
}

// TestPeerClusterEquivalenceMatrix locks the driven multi-replica Peer
// runtime to the in-process cluster across all 13 lanes of EquivalenceLanes,
// including a mid-training Repartition: aggregates bit for bit (both drivers
// run the one round body and sum inbound batches in sender order), per-epoch
// traffic snapshots exactly — which transitively pins
// the ghost-advance scheme, since one skipped or extra coin on any replica
// desynchronizes drop decisions and the byte counts with them.
func TestPeerClusterEquivalenceMatrix(t *testing.T) {
	d, part := setup(t, 3)
	const nparts = 3
	part2 := partition.Partition(d.Graph, nparts, partition.NodeCut, partition.Config{Seed: 5})
	h := randMat(d.NumNodes(), 5, 77)
	g := randMat(d.NumNodes(), 5, 78)
	want := tensor.New(d.NumNodes(), 5)

	for name, cfg := range EquivalenceLanes(9) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cl := NewClusterFromConfig(d.Graph, part, nparts, cfg)
			defer cl.Close()
			peers := make([]*Peer, nparts)
			for p := 0; p < nparts; p++ {
				peer, err := NewPeer(d.Graph, part, nparts, p, cfg)
				if err != nil {
					t.Fatalf("NewPeer(%d): %v", p, err)
				}
				peers[p] = peer
			}
			mesh := newPeerMesh(t, peers, 5)

			for epoch := 0; epoch < 5; epoch++ {
				if epoch == 3 {
					// Mid-training repartition, applied identically on every
					// replica; the incremental dirty sets must agree.
					wantDirty, err := cl.Repartition(part2)
					if err != nil {
						t.Fatalf("cluster Repartition: %v", err)
					}
					for p, peer := range peers {
						gotDirty, err := peer.Repartition(part2)
						if err != nil {
							t.Fatalf("peer %d Repartition: %v", p, err)
						}
						if len(gotDirty) != len(wantDirty) {
							t.Fatalf("peer %d dirty %v, cluster %v", p, gotDirty, wantDirty)
						}
						for i := range gotDirty {
							if gotDirty[i] != wantDirty[i] {
								t.Fatalf("peer %d dirty %v, cluster %v", p, gotDirty, wantDirty)
							}
						}
					}
				}
				cl.ResetTraffic()
				cl.StartEpoch(epoch)
				mesh.fabric.Reset()
				for _, peer := range peers {
					peer.StartEpoch(epoch)
				}
				for _, bwd := range []bool{false, true} {
					in := h
					if bwd {
						in = g
					}
					var wantOut *tensor.Matrix
					if bwd {
						wantOut = cl.Backward(in)
					} else {
						wantOut = cl.Forward(in)
					}
					mesh.scatter(in)
					if err := mesh.round(t, bwd); err != nil {
						t.Fatalf("epoch %d bwd=%v: %v", epoch, bwd, err)
					}
					mesh.gather(want)
					if !want.Equal(wantOut, 0) {
						t.Fatalf("epoch %d bwd=%v: peer aggregate diverged from cluster", epoch, bwd)
					}
				}
				if cs, ps := cl.CaptureEpoch(), mesh.fabric.Capture(); cs != ps {
					t.Fatalf("epoch %d: peer traffic %+v vs cluster %+v", epoch, ps, cs)
				}
			}
		})
	}
}

// TestPeerStateRestoreRoundtrip pins the checkpoint contract on the
// stateful combos: capture every peer's State at an epoch boundary, keep
// running the originals, then rebuild fresh peers, Restore, and replay —
// the resumed mesh must reproduce the uninterrupted aggregates bit for bit
// (the mesh's ascending-sender decode order makes the rounds fully
// deterministic, so exact equality is required, not just tolerance).
func TestPeerStateRestoreRoundtrip(t *testing.T) {
	d, part := setup(t, 3)
	const nparts, dim = 3, 5
	h := randMat(d.NumNodes(), dim, 81)
	g := randMat(d.NumNodes(), dim, 82)

	for name, cfg := range map[string]exchange.Config{
		"sampling":  {SampleRate: 0.5, Seed: 9},
		"nsampling": {SampleRate: 0.3, Seed: 9},
		"quant4+ef": {QuantBits: 4, ErrorFeedback: true, Seed: 9},
		"delay3":    {DelayPeriod: 3, Seed: 9},
		"semantic":  {Semantic: true, SampleRate: 0.5, Seed: 9},
	} {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			build := func() []*Peer {
				peers := make([]*Peer, nparts)
				for p := 0; p < nparts; p++ {
					peer, err := NewPeer(d.Graph, part, nparts, p, cfg)
					if err != nil {
						t.Fatalf("NewPeer(%d): %v", p, err)
					}
					peers[p] = peer
				}
				return peers
			}
			const splitAt, epochs = 3, 6
			runEpoch := func(mesh *peerMesh, peers []*Peer, epoch int) []*tensor.Matrix {
				var outs []*tensor.Matrix
				for _, peer := range peers {
					peer.StartEpoch(epoch)
				}
				for _, bwd := range []bool{false, true} {
					in := h
					if bwd {
						in = g
					}
					mesh.scatter(in)
					if err := mesh.round(t, bwd); err != nil {
						t.Fatalf("epoch %d bwd=%v: %v", epoch, bwd, err)
					}
					got := tensor.New(d.NumNodes(), dim)
					mesh.gather(got)
					outs = append(outs, got)
				}
				return outs
			}

			peersA := build()
			meshA := newPeerMesh(t, peersA, dim)
			var states []*PeerState
			var want [][]*tensor.Matrix
			for e := 0; e < epochs; e++ {
				if e == splitAt {
					for _, peer := range peersA {
						states = append(states, peer.State())
					}
				}
				outs := runEpoch(meshA, peersA, e)
				if e >= splitAt {
					want = append(want, outs)
				}
			}

			peersB := build()
			meshB := newPeerMesh(t, peersB, dim)
			for p, peer := range peersB {
				if err := peer.Restore(states[p]); err != nil {
					t.Fatalf("Restore(%d): %v", p, err)
				}
			}
			for e := splitAt; e < epochs; e++ {
				outs := runEpoch(meshB, peersB, e)
				for i, got := range outs {
					if !got.Equal(want[e-splitAt][i], 0) {
						t.Fatalf("epoch %d round %d: resumed aggregate != uninterrupted (bit-exact required)", e, i)
					}
				}
			}
		})
	}
}

// TestNewPeerQuantBits: a fleet node builds its peer from a Setup frame, so a
// width the quantizer has no grid for is an error, not a panic; 0 and 32 are
// off and 1..16 are widths.
func TestNewPeerQuantBits(t *testing.T) {
	d, part := setup(t, 3)
	for _, bits := range []int{17, 20, 31} {
		if _, err := NewPeer(d.Graph, part, 3, 0, exchange.Config{QuantBits: bits}); err == nil {
			t.Errorf("QuantBits %d accepted", bits)
		}
	}
	for _, bits := range []int{0, 1, 16, 32} {
		if _, err := NewPeer(d.Graph, part, 3, 0, exchange.Config{QuantBits: bits}); err != nil {
			t.Errorf("QuantBits %d: %v", bits, err)
		}
	}
}

// TestPeerAlignRound: a peer moves forward to the ordinal its coordinator
// names — the rounds between were served from the model's buffers — and
// refuses one behind its own with ErrRoundOrdinal, changing nothing; an
// epoch boundary starts the count again. A delay lane also refuses an
// ordinal past its next delay slot.
func TestPeerAlignRound(t *testing.T) {
	d, part := setup(t, 3)
	p, err := NewPeer(d.Graph, part, 3, 1, exchange.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p.StartEpoch(0)
	if err := p.AlignRound(2); err != nil || p.round != 2 {
		t.Fatalf("align to 2: %v, at %d", err, p.round)
	}
	if err := p.AlignRound(1); !errors.Is(err, ErrRoundOrdinal) || p.round != 2 {
		t.Fatalf("align back to 1: %v, at %d", err, p.round)
	}
	if err := p.AlignRound(2); err != nil {
		t.Fatalf("align to its own ordinal: %v", err)
	}
	p.StartEpoch(1)
	if err := p.AlignRound(0); err != nil || p.round != 0 {
		t.Fatalf("align to 0 in a new epoch: %v, at %d", err, p.round)
	}

	// On a delay lane the ordinal keys a delay slot, and a round opens every
	// slot up to its own: an ordinal past the next slot is refused before
	// any is allocated.
	dp, err := NewPeer(d.Graph, part, 3, 1, exchange.MethodMatrix(4)["delay3"])
	if err != nil {
		t.Fatal(err)
	}
	dp.StartEpoch(0)
	for _, ord := range []int{1 << 30, 1} {
		if err := dp.AlignRound(ord); !errors.Is(err, ErrRoundOrdinal) || dp.round != 0 || len(dp.delaySlots) != 0 {
			t.Fatalf("delay lane, align to %d with no slot open: %v, at %d, %d slots", ord, err, dp.round, len(dp.delaySlots))
		}
	}
	if err := dp.AlignRound(0); err != nil {
		t.Fatalf("delay lane, align to the next slot: %v", err)
	}
}

// TestPeerRestoreRejectsMismatch covers the validation errors.
func TestPeerRestoreRejectsMismatch(t *testing.T) {
	d, part := setup(t, 3)
	peer, err := NewPeer(d.Graph, part, 3, 0, exchange.Config{SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Restore(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if err := peer.Restore(&PeerState{NParts: 4}); err == nil {
		t.Fatal("wrong nparts accepted")
	}
	if err := peer.Restore(&PeerState{NParts: 3}); err == nil {
		t.Fatal("missing pair streams accepted (config mismatch)")
	}
	if _, err := NewPeer(d.Graph, part, 3, 7, exchange.Config{}); err == nil {
		t.Fatal("out-of-range peer id accepted")
	}

	// Residuals a pair's store cannot hold are refused, typed, and change
	// nothing. Pair 1 (0→1) is the one peer 0 encodes first.
	ef, err := NewPeer(d.Graph, part, 3, 0, exchange.Config{QuantBits: 4, ErrorFeedback: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(max(ef.core.Candidates(1, false), ef.core.Candidates(1, true)))
	for name, res := range map[string]map[int64][]float64{
		"negative unit":      {compress.RoundUnitKey(0, -1): make([]float64, 5)},
		"unit past the pair": {compress.RoundUnitKey(0, n-1): make([]float64, 5), compress.RoundUnitKey(0, n): make([]float64, 5)},
		"mixed widths":       {compress.RoundUnitKey(0, 0): make([]float64, 5), compress.RoundUnitKey(0, 1): make([]float64, 4)},
	} {
		st := ef.State()
		st.Pairs[1].EF = res
		if err := ef.Restore(st); !errors.Is(err, compress.ErrBadResiduals) {
			t.Fatalf("%s: Restore returned %v, want compress.ErrBadResiduals", name, err)
		}
		if got := ef.State(); !reflect.DeepEqual(got.Pairs[1], exchange.PairStreamState{EF: map[int64][]float64{}}) {
			t.Fatalf("%s: refused restore left pair 1 at %+v", name, got.Pairs[1])
		}
	}
	// Residuals of one width that is not the round's restore, then poison the
	// peer at the first round that meets them instead of panicking in it.
	st := ef.State()
	st.Pairs[1].EF = map[int64][]float64{compress.RoundUnitKey(0, 0): make([]float64, 4)}
	if err := ef.Restore(st); err != nil {
		t.Fatal(err)
	}
	h, out := randMat(len(ef.Own()), 5, 1), tensor.New(len(ef.Own()), 5)
	send := func(int, []byte) error { return errors.New("frame sent past the width check") }
	recv := func() (int, []byte, error) { return 0, nil, errors.New("receive past the width check") }
	ef.StartEpoch(0)
	first := ef.Round(h, out, false, send, recv)
	if !errors.Is(first, ErrBadState) || !strings.Contains(first.Error(), "4 wide, the round is 5") {
		t.Fatalf("round over 4-wide residuals at width 5: %v", first)
	}
	ef.StartEpoch(1)
	if err := ef.Round(h, out, false, send, recv); err != first {
		t.Fatalf("poisoned peer's next round returned %v, want %v", err, first)
	}
}

// newPeers builds one Peer per partition.
func newPeers(t *testing.T, g *graph.Graph, part []int, nparts int, cfg exchange.Config) []*Peer {
	t.Helper()
	peers := make([]*Peer, nparts)
	for p := range peers {
		peer, err := NewPeer(g, part, nparts, p, cfg)
		if err != nil {
			t.Fatalf("NewPeer(%d): %v", p, err)
		}
		peers[p] = peer
	}
	return peers
}

// TestPeerRoundRejectsGraphRows: a peer's matrices are its shard, one row per
// owned node. Matrices of the whole graph's rows are refused with
// ErrRoundShape before a frame is encoded or awaited, and do not poison the
// peer: a shard-shaped round then gets as far as its first send.
func TestPeerRoundRejectsGraphRows(t *testing.T) {
	d, part := setup(t, 3)
	peer, err := NewPeer(d.Graph, part, 3, 1, exchange.Config{Semantic: true})
	if err != nil {
		t.Fatal(err)
	}
	n, own := d.NumNodes(), len(peer.Own())
	sent := false
	stop := errors.New("stop at the first send")
	send := func(int, []byte) error { sent = true; return stop }
	recv := func() (int, []byte, error) { t.Fatal("receive in a refused round"); return 0, nil, nil }
	peer.StartEpoch(0)
	for name, m := range map[string][2]*tensor.Matrix{
		"graph rows": {randMat(n, 4, 1), tensor.New(n, 4)},
		"h of graph": {randMat(n, 4, 1), tensor.New(own, 4)},
		"out wider":  {randMat(own, 4, 1), tensor.New(own, 5)},
	} {
		if err := peer.Round(m[0], m[1], false, send, recv); !errors.Is(err, ErrRoundShape) || sent {
			t.Fatalf("%s: Round = %v (sent %v), want ErrRoundShape before any send", name, err, sent)
		}
	}
	if err := peer.Round(randMat(own, 4, 1), tensor.New(own, 4), false, send, recv); !errors.Is(err, stop) {
		t.Fatalf("shard round after the refused ones: %v, want the send's error", err)
	}
}

// TestPeerRestoreIsAtomic: a checkpoint whose second delay slot has the wrong
// row count is refused whole, typed. The streams and the first slot it also
// carried are not applied, so State is unchanged and the next epoch's replay
// rounds read the slots the peer already had. (Restore used to apply the
// streams and the first slot, mark both filled and return with the second
// nil, for the replay round to dereference.)
func TestPeerRestoreIsAtomic(t *testing.T) {
	d, part := setup(t, 3)
	const nparts, dim = 3, 5
	peers := newPeers(t, d.Graph, part, nparts, exchange.Config{SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, DelayPeriod: 2, Seed: 4})
	mesh := newPeerMesh(t, peers, dim)
	ins := []*tensor.Matrix{randMat(d.NumNodes(), dim, 91), randMat(d.NumNodes(), dim, 92)}
	for _, peer := range peers {
		peer.StartEpoch(0)
	}
	for r, in := range ins {
		mesh.scatter(in)
		if err := mesh.round(t, r == 1); err != nil {
			t.Fatal(err)
		}
	}
	peer := peers[0]
	before := peer.State()
	if len(before.Delay) != 2 || before.Delay[0] == nil || before.Delay[1] == nil {
		t.Fatalf("delay slots after a fresh epoch: %v, want two filled", before.Delay)
	}
	bad := peer.State()
	bad.Pairs[1].EFCorrected += 3
	for i := range bad.Delay[0].Data {
		bad.Delay[0].Data[i]++
	}
	short := bad.Delay[1]
	short.Rows--
	short.Index, short.Data = short.Index[:len(short.Index)-1], short.Data[:len(short.Data)-short.Cols]
	if err := peer.Restore(bad); !errors.Is(err, ErrBadState) {
		t.Fatalf("Restore of a malformed slot 1: %v, want ErrBadState", err)
	}
	if got := peer.State(); !reflect.DeepEqual(got, before) {
		t.Fatal("a refused Restore changed the peer's state")
	}
	send := func(int, []byte) error { t.Fatal("send in a replay round"); return nil }
	recv := func() (int, []byte, error) { t.Fatal("receive in a replay round"); return 0, nil, nil }
	replay := func() []*tensor.Matrix {
		peer.StartEpoch(1)
		var outs []*tensor.Matrix
		for r := range ins {
			out := tensor.New(len(peer.Own()), dim)
			if err := peer.Round(mesh.h[0], out, r == 1, send, recv); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		return outs
	}
	got := replay()
	if err := peer.Restore(before); err != nil {
		t.Fatal(err)
	}
	for r, want := range replay() {
		if !got[r].Equal(want, 0) {
			t.Fatalf("replay round %d after the refused Restore differs from the state the peer had", r)
		}
	}
}

// TestDelaySlotOfAnotherWidth: a delay slot filled or restored at one width
// and replayed by a round of another is refused with ErrBadState, and the
// runtime is poisoned; the replay used to panic in its AXPY. A delay-lane
// checkpoint written while a round slot was 32 wide, resumed by a model whose
// round there is 16 wide, meets exactly this.
func TestDelaySlotOfAnotherWidth(t *testing.T) {
	d, part := setup(t, 3)
	const nparts, dim = 3, 5
	cfg := exchange.Config{DelayPeriod: 2, Seed: 4}
	t.Run("peer", func(t *testing.T) {
		peers := newPeers(t, d.Graph, part, nparts, cfg)
		mesh := newPeerMesh(t, peers, dim)
		for _, peer := range peers {
			peer.StartEpoch(0)
		}
		for r := 0; r < 2; r++ {
			mesh.scatter(randMat(d.NumNodes(), dim, int64(93+r)))
			if err := mesh.round(t, r == 1); err != nil {
				t.Fatal(err)
			}
		}
		peer := peers[0]
		rows := len(peer.Own())
		st := peer.State()
		st.Delay[1] = &DelaySlot{Rows: rows, Cols: dim - 1}
		if err := peer.Restore(st); err != nil {
			t.Fatal(err)
		}
		send := func(int, []byte) error { t.Fatal("send in a replay round"); return nil }
		recv := func() (int, []byte, error) { t.Fatal("receive in a replay round"); return 0, nil, nil }
		h, out := randMat(rows, dim, 95), tensor.New(rows, dim)
		peer.StartEpoch(1)
		if err := peer.Round(h, out, false, send, recv); err != nil {
			t.Fatalf("replay of the slot restored at the round's width: %v", err)
		}
		first := peer.Round(h, out, true, send, recv)
		if !errors.Is(first, ErrBadState) {
			t.Fatalf("replay of a %d-wide slot at width %d: %v, want ErrBadState", dim-1, dim, first)
		}
		peer.StartEpoch(3)
		if err := peer.Round(h, out, false, send, recv); err != first {
			t.Fatalf("poisoned peer's next round returned %v, want %v", err, first)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		c := NewClusterFromConfig(d.Graph, part, nparts, cfg)
		defer c.Close()
		n := d.NumNodes()
		round := func(cols int, backward bool) error {
			return c.AggregateInto(tensor.New(n, cols), randMat(n, cols, int64(cols)), backward)
		}
		c.StartEpoch(0)
		for r := 0; r < 2; r++ {
			if err := round(dim, r == 1); err != nil {
				t.Fatal(err)
			}
		}
		c.StartEpoch(1)
		if err := round(dim, false); err != nil {
			t.Fatalf("replay at the slot's width: %v", err)
		}
		first := round(dim-1, true)
		if !errors.Is(first, ErrBadState) {
			t.Fatalf("replay of a %d-wide slot at width %d: %v, want ErrBadState", dim, dim-1, first)
		}
		c.StartEpoch(2)
		if err := round(dim, false); err != first {
			t.Fatalf("poisoned cluster's next round returned %v, want %v", err, first)
		}
	})
}

// TestPeerRepartitionMovesIsolatedNode: a repartition that moves only an
// isolated node dirties no pair, so the delay slots stay filled — and a
// peer's shard rows shift under them. Peer 0 loses node 0 and peer 1 gains it,
// the lowest id, so every row of both shards moves; the replay epoch after it
// must still equal the cluster's, bit for bit.
func TestPeerRepartitionMovesIsolatedNode(t *testing.T) {
	d, part := setup(t, 3)
	const nparts, dim, isolated = 3, 5, 3
	var arcs []graph.Edge
	for _, e := range d.Graph.Edges() {
		arcs = append(arcs, graph.Edge{U: e.U + isolated, V: e.V + isolated})
	}
	g := graph.New(d.NumNodes()+isolated, arcs)
	part = append([]int{0, 1, 2}, part...)
	moved := append([]int{1}, part[1:]...)
	cfg := exchange.Config{Semantic: true, DelayPeriod: 2, Seed: 4}
	cl := NewClusterFromConfig(g, part, nparts, cfg)
	defer cl.Close()
	peers := newPeers(t, g, part, nparts, cfg)
	mesh := newPeerMesh(t, peers, dim)
	h := randMat(g.NumNodes(), dim, 93)
	got := tensor.New(g.NumNodes(), dim)
	for epoch := 0; epoch < 3; epoch++ {
		if epoch == 1 {
			if dirty, err := cl.Repartition(moved); err != nil || len(dirty) != 0 {
				t.Fatalf("cluster Repartition: dirty %v, %v; want no dirty pair", dirty, err)
			}
			for p, peer := range peers {
				if dirty, err := peer.Repartition(moved); err != nil || len(dirty) != 0 {
					t.Fatalf("peer %d Repartition: dirty %v, %v; want no dirty pair", p, dirty, err)
				}
			}
		}
		cl.StartEpoch(epoch)
		for _, peer := range peers {
			peer.StartEpoch(epoch)
		}
		want := cl.Forward(h)
		mesh.scatter(h)
		if err := mesh.round(t, false); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		mesh.gather(got)
		if !got.Equal(want, 0) {
			t.Fatalf("epoch %d: peers diverged from the cluster", epoch)
		}
	}
}
