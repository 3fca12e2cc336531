package worker

import (
	"errors"
	"fmt"
	"slices"

	"scgnn/internal/compress"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/sched"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
	"scgnn/internal/wire"
)

// exchanger is the wire runtime one process holds, shared by both drivers:
// Cluster runs every partition's worker over in-memory slots, Peer runs one
// over sockets. It owns the exchange core, the gather plans compiled from it,
// the delay slots, and the retained scratch of the workers this process runs
// — and the one round body both drivers execute (sendHalf, recvHalf, and
// replayRound in place of both on a delayed-transmission replay).
type exchanger struct {
	core *exchange.Core

	// me is the one worker this process runs, or -1 for all of them. rowOf maps
	// a global node id to its row in the matrices a round reads and writes, and
	// rows is their row count. With every worker in the process the map is the
	// identity. With one it is the node's rank in Own(me), -1 off the shard: a
	// round reads h and writes out only on rows its worker owns (encode reads
	// its sources, decode and delivery write its sinks, delay slots cache owned
	// rows), so a peer holds no halo rows. The compiled lists carry mapped rows;
	// node messages are mapped as they are encoded and decoded.
	me    int
	rowOf []int32
	rows  int

	// Compiled gather plans (see gather.go for the invalidation contract):
	// kernels[idx] is pair idx's flattened encode/deliver lists (semantic
	// only), local[p] worker p's local-aggregation CSR in boundary-first row
	// order. local, ws and tally have an entry per partition, set only for
	// the workers this process runs.
	kernels []pairKernels
	local   []*localPlan
	ws      []*workerScratch
	// tally[p] is what worker p sent and did since it was last folded:
	// its frames' bytes and messages per destination, and its share of the
	// analytic cost model's processing counters — exact integer sums taken
	// where the sizes already are (the compiled local plan's arc count, the
	// walk's sink, the compiled group sizes, the delay slot's rows), so they
	// depend on what was exchanged and never on how the round was scheduled.
	tally []simnet.Tally
	// phaseHook, when non-nil, observes each worker's round phases in
	// execution order ("local-boundary", "send", "local-interior",
	// "receive") — test instrumentation for the boundary-first schedule.
	// Called from worker goroutines; implementations must be thread-safe.
	phaseHook func(worker int, phase string)

	// delaySlots[round] is the retained remote-delta matrix of one
	// aggregate-round slot (layer × direction); delayFilled marks slots that
	// hold a usable cached delta. Touched between rounds only, except that
	// workers write disjoint rows of a slot during fresh rounds.
	delayPeriod int
	delaySlots  []*tensor.Matrix
	delayFilled []bool
	// round is the aggregate-round slot within the current epoch, the stable
	// half of error-feedback unit keys and the delay-slot index; epoch and
	// freshEval drive the delayed-transmission schedule.
	epoch, round int
	freshEval    bool
	// err poisons the runtime after the first failed round.
	err error
}

// workerScratch is one worker's buffer set retained across rounds. Slices
// grow to the largest feature dimension seen and are then reused; after
// warm-up a round allocates nothing.
type workerScratch struct {
	batches []wire.Batch // one encode buffer per peer (self entry unused)
	msg     wire.Message // reused message struct for encoding
	payload []float64    // outgoing payload / group-fuse accumulator
	dec     []float64    // inbound group payload staging
	efSent  []float64    // error feedback: receiver-reconstructed values
}

func (ws *workerScratch) ensure(dim int) {
	if cap(ws.payload) < dim {
		ws.payload = make([]float64, dim)
		ws.dec = make([]float64, dim)
		ws.efSent = make([]float64, dim)
	}
}

// newExchanger builds the runtime for the method combination cfg selects;
// delay is active for DelayPeriod > 1. me selects the one
// worker this process runs, or -1 for all of them; kernels and local plans
// are compiled only for what those workers encode, decode and aggregate.
func newExchanger(g *graph.Graph, part []int, nparts, me int, cfg exchange.Config) *exchanger {
	x := &exchanger{
		core:  exchange.New(g, part, nparts, cfg),
		me:    me,
		local: make([]*localPlan, nparts),
		ws:    make([]*workerScratch, nparts),
		tally: make([]simnet.Tally, nparts),
	}
	if cfg.DelayPeriod > 1 {
		x.delayPeriod = cfg.DelayPeriod
	}
	for p := 0; p < nparts; p++ {
		if me < 0 || p == me {
			x.ws[p] = &workerScratch{batches: make([]wire.Batch, nparts)}
			x.tally[p] = simnet.NewTally(nparts)
		}
	}
	x.mapRows()
	if cfg.Semantic {
		x.kernels = make([]pairKernels, nparts*nparts)
		for idx := range x.kernels {
			x.compilePairKernels(idx)
		}
	}
	mark := make([]bool, g.NumNodes())
	for p := range x.ws {
		if x.ws[p] != nil {
			x.local[p] = x.compileLocal(p, mark)
		}
	}
	return x
}

// ErrRoundShape marks a round whose matrices are not the runtime's rows × one
// shared width: a Cluster's are N×F, a Peer's len(Own())×F.
var ErrRoundShape = errors.New("worker: round shapes")

// mapRows derives rowOf and rows from the current ownership.
func (x *exchanger) mapRows() {
	x.rowOf = make([]int32, x.core.G.NumNodes())
	if x.me < 0 {
		for u := range x.rowOf {
			x.rowOf[u] = int32(u)
		}
		x.rows = len(x.rowOf)
		return
	}
	for u := range x.rowOf {
		x.rowOf[u] = -1
	}
	own := x.core.Own[x.me]
	for k, u := range own {
		x.rowOf[u] = int32(k)
	}
	x.rows = len(own)
}

// startEpoch marks an epoch boundary: it resets the aggregate-round slot and
// moves the delayed-transmission schedule to the given epoch.
func (x *exchanger) startEpoch(epoch int) {
	x.epoch, x.round, x.freshEval = epoch, 0, false
}

// reusable is gnn.RoundReuser's answer for the round about to run (see
// Cluster.ReuseRound): exchange.ReusePolicy's, unless the runtime is
// poisoned. A reused round still takes its ordinal, so delay slots and
// error-feedback keys stay where the run that ran it has them.
func (x *exchanger) reusable(gen uint64) (uint64, bool) {
	if x.err != nil {
		return 0, false
	}
	p := exchange.ReusePolicy{NParts: x.core.NParts, Setting: x.core.Setting,
		DelayPeriod: x.delayPeriod, Epoch: x.epoch, Eval: x.freshEval}
	cur, reuse := p.Decide(gen, x.core.Generation())
	if reuse {
		x.round++
	}
	return cur, reuse
}

// SchedSignals snapshots every pair's scheduler-visible counters (nil when
// scheduling is off; see exchange.Streams.Signals).
func (x *exchanger) SchedSignals() []sched.Signals { return x.core.Signals() }

// ScheduleLevels returns a copy of the current per-pair rung levels, or nil
// when variable-rate scheduling is disabled.
func (x *exchanger) ScheduleLevels() []int { return x.core.Levels() }

// ApplySchedule installs externally decided per-pair rung levels — the
// coordinator of a transport-driven fleet sends them before each epoch frame
// — reseeding every pair whose rung changed. Must be called between rounds.
// Returns an error when scheduling is off or the levels are malformed;
// nothing changes on error.
func (x *exchanger) ApplySchedule(levels []int) error { return x.core.SetLevels(levels) }

// Repartition moves the runtime to a new partition of the same graph under
// the exchange core's incremental contract: clean pairs keep plan, arcs and
// streams verbatim,
// dirty pairs are rebuilt and re-seeded; their gather kernels and the local
// plans the move invalidates are recompiled; delay slots (whole-round
// aggregates) are invalidated iff any pair is dirty. A peer whose shard
// changed maps its rows afresh and recompiles every list it holds. Must not
// race a round in flight. Returns the ascending dirty pair indices; on error
// nothing changes.
func (x *exchanger) Repartition(part []int) ([]int, error) {
	old, oldOwn := x.core.Part, x.core.Own
	dirty, err := x.core.Repartition(part)
	if err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	remapped := x.me >= 0 && !slices.Equal(oldOwn[x.me], x.core.Own[x.me])
	if remapped {
		x.mapRows()
	}
	for idx := range x.kernels {
		if _, ok := slices.BinarySearch(dirty, idx); ok || remapped {
			x.compilePairKernels(idx)
		}
	}
	// Local plans compile from the new ownership/plans/arcs, so this comes
	// after the core has moved.
	var mark []bool
	for p, d := range dirtyLocalParts(old, x.core.Part, x.core.NParts, dirty) {
		if d && x.local[p] != nil {
			if mark == nil {
				mark = make([]bool, len(part))
			}
			x.local[p] = x.compileLocal(p, mark)
		}
	}
	if len(dirty) > 0 {
		// Matrices are retained (fresh rounds fully rewrite them, and
		// beginRound resizes them to a changed shard), only the filled marks
		// drop.
		clear(x.delayFilled)
	} else if remapped {
		x.relayoutSlots(oldOwn[x.me])
	}
	return dirty, nil
}

// relayoutSlots moves every filled delay slot from the rows of the old shard
// to those of the current one. It runs when a peer's shard changed but no pair
// is dirty: a node with an arc dirties a pair when it moves, so only isolated
// nodes moved, whose cached remote deltas are zero and stay valid.
func (x *exchanger) relayoutSlots(old []int32) {
	for r, slot := range x.delaySlots {
		if slot == nil || !x.delayFilled[r] {
			continue
		}
		next := tensor.New(x.rows, slot.Cols)
		for k, u := range x.core.Own[x.me] {
			if j, ok := slices.BinarySearch(old, u); ok {
				copy(next.Row(k), slot.Row(j))
			}
		}
		x.delaySlots[r] = next
	}
}

// beginRound validates the round's matrices (error-feedback residuals, or a
// delay slot to replay, at another width than the round's poison the
// runtime with ErrBadState), zeroes
// out, and resolves where remote contributions accumulate: out itself
// normally; under delayed transmission the round slot's retained matrix —
// replayed as cached when the epoch does not transmit and the slot is filled
// (replay: no exchange, zero traffic), else rewritten by a fresh exchange; a
// forced-fresh eval pass bypasses the slots in both directions. The decision is a pure function of
// (epoch, round, slot marks), so every worker and every replica agrees on
// the round shape.
func (x *exchanger) beginRound(out, h *tensor.Matrix) (target *tensor.Matrix, replay bool, err error) {
	if x.err != nil {
		return nil, false, x.err
	}
	if h.Rows != x.rows || out.Rows != x.rows || out.Cols != h.Cols || h.Cols < 1 {
		return nil, false, fmt.Errorf("%w: h (%d,%d) out (%d,%d), want %d rows each and equal, positive cols",
			ErrRoundShape, h.Rows, h.Cols, out.Rows, out.Cols, x.rows)
	}
	for idx := range x.core.Pairs {
		if ef := x.core.Pairs[idx].EF; ef != nil {
			if w, ok := ef.Width(x.round); ok && w != h.Cols {
				x.err = fmt.Errorf("%w: pair %d round %d: error-feedback residuals are %d wide, the round is %d", ErrBadState, idx, x.round, w, h.Cols)
				return nil, false, x.err
			}
		}
	}
	out.Zero()
	delayOn := x.delayPeriod > 1 && !x.freshEval
	if !delayOn {
		return out, false, nil
	}
	round := x.round
	if x.epoch%x.delayPeriod != 0 && round < len(x.delayFilled) && x.delayFilled[round] {
		if w := x.delaySlots[round].Cols; w != h.Cols {
			x.err = fmt.Errorf("%w: round %d replays a delay slot %d wide, the round is %d", ErrBadState, round, w, h.Cols)
			return nil, false, x.err
		}
		return x.delaySlots[round], true, nil
	}
	for len(x.delaySlots) <= round {
		x.delaySlots = append(x.delaySlots, nil)
		x.delayFilled = append(x.delayFilled, false)
	}
	slot := x.delaySlots[round]
	if slot == nil || slot.Rows != out.Rows || slot.Cols != out.Cols {
		slot = tensor.New(out.Rows, out.Cols)
		x.delaySlots[round] = slot
	}
	x.delayFilled[round] = false // being rewritten; endRound marks it again
	return slot, false, nil
}

// endRound closes the round beginRound opened: a failed round poisons the
// runtime (contributions may have been dropped mid-round, so every later
// round returns the same error), a clean fresh delayed round marks its slot
// filled.
func (x *exchanger) endRound(target, out *tensor.Matrix, replay bool, err error) error {
	if err != nil {
		x.err = err
		return err
	}
	if target != out && !replay {
		x.delayFilled[x.round] = true
	}
	x.round++
	return nil
}

// replayRound is a replay round's whole body: no exchange anywhere, so no
// coins are flipped — the local aggregate plus the cached slot.
func (x *exchanger) replayRound(me int, h, out, slot *tensor.Matrix) {
	x.localRows(me, h, out, 0, len(x.local[me].rows))
	x.addOwnRows(me, slot, out)
}

// sendHalf is the first half of an exchanging round — everything worker me
// does before it needs a peer's bytes, scheduled boundary-first: the rows its
// outgoing halo reads, then one encoded frame (possibly empty) per peer,
// ascending, so the sends launch as early as possible. It reads h and writes
// only me's rows of out and me's pair streams, so a driver may run every
// worker's sendHalf in any order or at once; every frame of the round exists
// once they have all returned. A send error aborts the half.
func (x *exchanger) sendHalf(me int, h, out *tensor.Matrix, backward bool, send func(peer int, frame []byte) error) error {
	x.ws[me].ensure(h.Cols)
	x.localRows(me, h, out, 0, x.local[me].nBoundary)
	x.hook(me, "local-boundary")
	for peer := 0; peer < x.core.NParts; peer++ {
		if peer == me {
			continue
		}
		if err := send(peer, x.encodePeer(me, peer, h, backward)); err != nil {
			return fmt.Errorf("worker: peer %d: send to %d: %w", me, peer, err)
		}
	}
	x.hook(me, "send")
	return nil
}

// recvHalf is the second half: the interior rows — which no peer depends on,
// so over a socket they overlap the frames in flight — then the nparts-1
// inbound frames, each with the sender the transport names, decoded into me's
// rows of target in the order recv yields them, which must be ascending
// sender order: every row then sums its remote
// contributions in one fixed order, which is what makes the result independent
// of arrival order and equal on every transport. Every row's accumulation is
// self-contained and encoding reads only h, so the boundary-first order is
// output-invariant. A recv error stops receiving; after a decode error the
// remaining batches are still drained so the transport stays balanced.
func (x *exchanger) recvHalf(me int, h, out, target *tensor.Matrix, backward bool, recv func() (from int, frame []byte, err error)) error {
	lp := x.local[me]
	if target != out {
		// Fresh delayed round: the slot holds last period's delta; clear this
		// worker's rows before accumulating the new one. Every row is owned
		// by exactly one worker, so the slot is fully rewritten.
		for _, u := range x.core.Own[me] {
			clear(target.Row(int(x.rowOf[u])))
		}
	}
	x.localRows(me, h, out, lp.nBoundary, len(lp.rows))
	x.hook(me, "local-interior")
	var firstErr error
	for k := 0; k < x.core.NParts-1; k++ {
		from, buf, err := recv()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("worker: peer %d: recv: %w", me, err)
			}
			break // transport failure: the remaining batches are not coming
		}
		if firstErr == nil {
			firstErr = x.decodeBatch(me, from, backward, target, buf)
		}
	}
	x.hook(me, "receive")
	if firstErr == nil && target != out {
		x.addOwnRows(me, target, out)
	}
	return firstErr
}

// addOwnRows adds the delay slot's rows worker me owns into out.
func (x *exchanger) addOwnRows(me int, slot, out *tensor.Matrix) {
	own := x.core.Own[me]
	for _, u := range own {
		r := int(x.rowOf[u])
		tensor.AXPY(1, slot.Row(r), out.Row(r))
	}
	x.tally[me].CacheValues += int64(len(own) * out.Cols)
}

// hook reports a completed phase to the test instrumentation, if any.
func (x *exchanger) hook(me int, phase string) {
	if x.phaseHook != nil {
		x.phaseHook(me, phase)
	}
}

// localRows computes rows [from, to) of worker me's local plan — the
// within-partition part of Â·h for those rows. The compiled CSR bakes the
// self-loop and same-partition neighbor terms (coefficients included) per
// row. The kernel gets the whole term list, not just these rows', so its
// prefetch runs on into the rows that follow.
func (x *exchanger) localRows(me int, h, out *tensor.Matrix, from, to int) {
	lp := x.local[me]
	tensor.GatherCSR(out, h, lp.rows[from:to], lp.off[from:to+1], lp.nbr, lp.w)
	// The cost model charges the neighbor terms, not the self loop each row
	// opens with.
	arcs := int(lp.off[to]-lp.off[from]) - (to - from)
	x.tally[me].ComputeFlops += int64(2 * h.Cols * arcs)
}

// encodePeer encodes worker me's outgoing halo for one peer into the retained
// batch buffer, records the traffic on me's tally, and returns the
// framed bytes. It is the wire runtime's sink of the shared unit walk: one
// message per surviving group (Fig. 7(b)), one per surviving O2O residual or
// halo star (Fig. 7(a)), in walk order behind the frame's batch header.
// Forward it walks pair (me→peer); backward pair (peer→me) reversed — me owns
// its sinks. The buffer is reused next round: receivers must fully consume it
// before then (in-process the round barrier guarantees this; the socket
// transport copies it out immediately).
func (x *exchanger) encodePeer(me, peer int, h *tensor.Matrix, backward bool) []byte {
	ws := x.ws[me]
	batch := &ws.batches[peer]
	idx := me*x.core.NParts + peer
	if backward {
		idx = peer*x.core.NParts + me
	}
	frame := x.frame(idx, me, h.Cols, backward)
	batch.Begin(frame)
	payload := ws.payload[:h.Cols]
	msg := &ws.msg
	msg.Payload = payload
	ps := &x.core.Pairs[idx]
	if ps.EF != nil {
		ps.EF.SetUnits(x.round, frame.Count)
	}
	enc, _ := x.groupPlans(idx, backward)
	groups, rowOf := x.core.Groups(idx, backward), x.rowOf
	// The receiver rows the frame's messages are delivered to: a per-node
	// unit's terms, a group's members — senders fused in plus receivers
	// fanned out to.
	terms, members := 0, 0
	x.core.Walk(idx, backward, x.epoch, x.round, func(u exchange.Unit) {
		if frame.Sampled {
			batch.Present(int(u.Index))
		}
		if u.Group >= 0 {
			// h_g = scale·Σ w(u)·f[u]·h_u in one fused pass over the members.
			clear(payload)
			rows, w := enc.Group(int(u.Group))
			tensor.GatherAXPY(payload, h, rows, w, u.Scale)
			members += len(rows) + len(groups[u.Group].DstNodes)
		} else {
			scale := x.core.Coeff[u.Sender] * u.Scale
			for i, v := range h.Row(int(rowOf[u.Sender])) {
				payload[i] = scale * v
			}
			terms += int(u.Terms)
		}
		x.addMsg(ws, batch, ps, u.Index)
	})
	buf := batch.Bytes()
	// The frame is the traffic: its batch header, then the messages' payloads.
	tl, dim := &x.tally[me], h.Cols
	tl.Send(peer, int64(len(buf)), int64(batch.Len()))
	// The processing the batch stands for, on both of its ends: a delivered
	// term per receiver row, a group also one per member fused in.
	tl.ComputeFlops += int64(2 * dim * (terms + members))
	tl.SemanticValues += int64(dim * members)
	if ps.Bits > 0 {
		tl.QuantValues += int64(dim * batch.Len())
	}
	if !x.core.Semantic() && frame.Sampled {
		tl.SampleEdges += int64(len(x.core.Stars(idx, backward).Recv))
	}
	return buf
}

// frame derives pair idx's batch header for a round of the given width and
// direction sent by sender, from state every replica shares: the pair's codec
// and sampling gates and its candidate count. The encoder writes it; the
// decoder holds the bytes to it.
func (x *exchanger) frame(idx, sender, width int, backward bool) wire.Frame {
	ps := &x.core.Pairs[idx]
	return wire.Frame{Sender: int32(sender), Width: width, Bits: ps.Bits, Count: x.core.Candidates(idx, backward),
		Adaptive: ps.Adaptive != nil, Sampled: ps.Sampler != nil}
}

// addMsg appends the staged message ws.msg to the batch — quantized at the
// pair's width when it has one, with residual error feedback layered on top
// when enabled. unit is the message's candidate index within (pair, round);
// with the round slot it keys the residual store (compress.RoundUnitKey), so
// a unit meets its own residual again next epoch. Bytes reflect the reduced
// wire size: ceil(n·bits/8) + 8 metadata in place of 4n (+1 when adaptive).
func (x *exchanger) addMsg(ws *workerScratch, batch *wire.Batch, ps *exchange.PairState, unit int64) {
	m := &ws.msg
	if ps.Bits <= 0 {
		batch.Add(m)
		return
	}
	key, sent := compress.RoundUnitKey(x.round, unit), []float64(nil)
	if ps.EF != nil {
		ps.EF.PreCompress(key, m.Payload)
		sent = ws.efSent[:len(m.Payload)]
	}
	bits := ps.Bits
	if ps.Adaptive != nil {
		// Width is chosen on the residual-corrected payload, the values that
		// are actually quantised.
		bits = ps.Adaptive.ChooseBits(m.Payload)
	}
	batch.AddQuantizedRoundtrip(m, bits, ps.Adaptive != nil, sent)
	if ps.EF != nil {
		// The encode leaves the payload as it was: the residual-corrected
		// values, which is what the residual is taken against.
		ps.EF.PostCompress(key, m.Payload, sent)
	}
}

// ErrCorruptFrame marks an inbound frame a round refused: bytes the wire
// decoder rejects (wire.ErrMalformed), a batch header other than the one the
// receiver derives for the pair (sender, width, codec, candidates, sampling),
// or, on a sampled pair, presence bits other than the round's coins.
var ErrCorruptFrame = errors.New("worker: corrupt frame")

// decodeBatch walks sender from's inbound frame with the streaming decoder.
// The sender is the transport's word, never the bytes': it picks the pair,
// whose derived header the frame's must equal. Each message is then resolved
// from its candidate index through the pair's structure (exchange's Target):
// an O2O payload is decoded directly into an AXPY against its receiver's row;
// a group or star payload is staged once in the retained scratch and fanned
// out — a group through the compiled deliver plan, a star over its arcs. A
// sampled frame must carry exactly the candidates that survive the round's
// coins, which the receiver walks the pair for (exchange's Walk). Corrupt wire
// data is an ErrCorruptFrame error, never a panic.
func (x *exchanger) decodeBatch(me, from int, backward bool, out *tensor.Matrix, buf []byte) error {
	np := x.core.NParts
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: worker %d, frame from %d: "+format, append([]any{ErrCorruptFrame, me, from}, args...)...)
	}
	if from < 0 || from >= np || from == me {
		return corrupt("no such sender")
	}
	// Forward frames ride the (from→me) pair; backward ones the reversed
	// (me→from) pair's.
	idx := from*np + me
	if backward {
		idx = me*np + from
	}
	want := x.frame(idx, from, out.Cols, backward)
	dec := wire.NewDecoder(buf)
	if len(buf) == 0 {
		if want.Count > 0 && !want.Sampled {
			return corrupt("empty, want %d messages", want.Count)
		}
	} else if got, err := dec.Frame(); err != nil {
		return corrupt("%w", err)
	} else if got != want {
		return corrupt("header %+v, want %+v", got, want)
	}
	scratch := x.ws[me].dec[:out.Cols]
	coeff, rowOf := x.core.Coeff, x.rowOf
	_, del := x.groupPlans(idx, backward)
	halo := !x.core.Semantic()
	var stars exchange.Stars
	if halo {
		stars = x.core.Stars(idx, backward)
	}
	msgs := 0
	for dec.More() {
		hd, err := dec.Next()
		if err != nil {
			return corrupt("%w", err)
		}
		msgs++
		// The frame's width is the round's, so no consumer can fail.
		gi, v := x.core.Target(idx, backward, hd.Index)
		switch {
		case gi < 0:
			_ = dec.AXPY(coeff[v], out.Row(int(rowOf[v])))
		case !halo:
			_ = dec.Read(scratch)
			rows, w := del.Group(int(gi))
			tensor.ScatterAXPY(out, rows, w, scratch, 1)
		default:
			_ = dec.Read(scratch)
			for _, r := range stars.Recv[stars.Off[gi]:stars.Off[gi+1]] {
				tensor.AXPY(coeff[r], scratch, out.Row(int(rowOf[r])))
			}
		}
	}
	if want.Sampled {
		kept, agree := 0, true
		x.core.Walk(idx, backward, x.epoch, x.round, func(u exchange.Unit) {
			agree = agree && dec.Present(int(u.Index))
			kept++
		})
		if !agree || kept != msgs {
			return corrupt("%d messages, but the round's coins keep %d candidates (all present: %v)", msgs, kept, agree)
		}
	}
	return nil
}
