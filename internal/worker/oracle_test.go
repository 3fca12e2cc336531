package worker

// The definitional oracle every runtime is checked against: the sink
// dist.Engine ran before it became a driver of the round body (exchangePair,
// sendPayload and the local aggregate, moved here verbatim, coarse sequential
// schedule only) plus the delay cache it kept. On semantic pairs it walks the
// same exchange.Core — the walk owns the coins, so there is nothing to compare
// there. A baseline pair it defines per cross arc itself, from the graph and
// the pair's coins alone (haloPair), so it shares neither the stars nor their
// walk with production. Everything after that it does the slow,
// obvious way: float64 payloads built
// member by member off the plan, a compress.Grid round trip per unit standing
// in for the codec, one tensor.AXPY per delivered term, bytes billed from the
// wire format's closed form: per message its codec bytes only, per non-empty
// frame one batch header plus, on a sampled pair, a presence bit per
// candidate. It shares no gather plan, fused kernel, wire.Batch
// or decoder with production, which is what makes agreement with it evidence.
//
// The names are exported so the external tests of this directory (which may
// import internal/dist, as the package's own tests may not) can reach it.

import (
	"fmt"
	"testing"

	"scgnn/internal/compress"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
	"scgnn/internal/wire"
)

// oracleDelayCache stores the remote-contribution matrix of each aggregate
// round so stale values can be replayed on non-transmitting epochs. Keys are
// the round index within an epoch (layer × direction), which is stable across
// epochs in full-batch training.
type oracleDelayCache struct {
	Period int // transmit on epochs where epoch % Period == 0
	slots  map[int]*tensor.Matrix
	// Touched counts values read or written since the last ResetCounters —
	// the memory-wall traffic the cost model charges.
	Touched int64
}

func newOracleDelayCache(period int) *oracleDelayCache {
	if period < 1 {
		panic(fmt.Sprintf("oracle: delay period %d < 1", period))
	}
	return &oracleDelayCache{Period: period, slots: make(map[int]*tensor.Matrix)}
}

// ShouldTransmit reports whether the given epoch transmits fresh values.
// Epoch 0 always transmits (there is nothing to replay yet).
func (d *oracleDelayCache) ShouldTransmit(epoch int) bool {
	return d.Period <= 1 || epoch%d.Period == 0
}

// Store saves a fresh remote-contribution matrix for a round slot.
func (d *oracleDelayCache) Store(round int, m *tensor.Matrix) {
	d.slots[round] = m.Clone()
	d.Touched += int64(len(m.Data))
}

// Load returns the stale matrix for a round slot, or nil when the slot has
// never been filled (callers must then transmit fresh values).
func (d *oracleDelayCache) Load(round int) *tensor.Matrix {
	m, ok := d.slots[round]
	if !ok {
		return nil
	}
	d.Touched += int64(len(m.Data))
	return m
}

// Oracle is the reference aggregator for one (graph, partition, Config).
type Oracle struct {
	core   *exchange.Core
	nparts int
	cfg    exchange.Config

	fabric *simnet.Fabric
	sent   []simnet.Tally // a round's traffic by sender, folded into fabric at its end

	delay *oracleDelayCache
	// freshEval forces the next rounds to bypass delayed transmission —
	// the final evaluation pass must see current values, not stale replays.
	freshEval bool

	epoch int
	round int

	// payload and efTrue are scratch vectors reused across pairs (outgoing
	// payload, error-feedback staging).
	payload []float64
	efTrue  []float64

	// per-epoch processing counters (see simnet.Snapshot)
	quantValues    int64
	sampleEdges    int64
	semanticValues int64
	aggFlops       int64
}

// NewOracle mirrors dist.NewEngine.
func NewOracle(g *graph.Graph, part []int, nparts int, cfg exchange.Config) *Oracle {
	e := &Oracle{
		core:   exchange.New(g, part, nparts, cfg),
		nparts: nparts,
		cfg:    cfg,
		fabric: simnet.NewFabric(nparts),
		sent:   make([]simnet.Tally, nparts),
	}
	for p := range e.sent {
		e.sent[p] = simnet.NewTally(nparts)
	}
	if cfg.DelayPeriod > 1 {
		e.delay = newOracleDelayCache(cfg.DelayPeriod)
	}
	return e
}

// Repartition mirrors dist.Engine.Repartition: delay slots hold whole-round
// aggregates, so they are invalidated iff any pair is dirty.
func (e *Oracle) Repartition(part []int) ([]int, error) {
	dirty, err := e.core.Repartition(part)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if e.delay != nil && len(dirty) > 0 {
		clear(e.delay.slots)
	}
	return dirty, nil
}

// Fabric exposes the per-link traffic accounting.
func (e *Oracle) Fabric() *simnet.Fabric { return e.fabric }

// SameLinks fails the test unless every link of got carries the bytes and
// messages it carries in want.
func SameLinks(t *testing.T, got, want *simnet.Fabric) {
	t.Helper()
	for s := 0; s < want.NumParts(); s++ {
		for r := 0; r < want.NumParts(); r++ {
			if got.LinkBytes(s, r) != want.LinkBytes(s, r) || got.LinkMessages(s, r) != want.LinkMessages(s, r) {
				t.Fatalf("link %d→%d: %d B / %d msgs, oracle %d B / %d msgs", s, r,
					got.LinkBytes(s, r), got.LinkMessages(s, r), want.LinkBytes(s, r), want.LinkMessages(s, r))
			}
		}
	}
}

// StartEpoch resets the per-epoch counters and, when variable-rate scheduling
// is on, runs the epoch-boundary decision.
func (e *Oracle) StartEpoch(epoch int) {
	e.core.Advance(epoch)
	e.epoch = epoch
	e.round = 0
	e.freshEval = false
	e.fabric.Reset()
	e.quantValues = 0
	e.sampleEdges = 0
	e.semanticValues = 0
	e.aggFlops = 0
	if e.delay != nil {
		e.delay.Touched = 0
	}
}

// ScheduleLevels returns a copy of the current per-pair rung levels, or nil
// when variable-rate scheduling is disabled.
func (e *Oracle) ScheduleLevels() []int { return e.core.Levels() }

// StartEvalEpoch prepares a measurement-only forward pass: counters reset as
// in StartEpoch, and delayed transmission is bypassed.
func (e *Oracle) StartEvalEpoch(epoch int) {
	e.StartEpoch(epoch)
	e.freshEval = true
}

// CaptureEpoch freezes this epoch's traffic and processing counters.
func (e *Oracle) CaptureEpoch() simnet.Snapshot {
	s := e.fabric.Capture()
	s.QuantValues = e.quantValues
	s.SampleEdges = e.sampleEdges
	s.SemanticValues = e.semanticValues
	s.ComputeFlops = e.aggFlops
	if e.delay != nil {
		s.CacheValues = e.delay.Touched
	}
	return s
}

// Forward computes out = Â·h with the cross-partition part of Â carried by the
// configured exchange method.
func (e *Oracle) Forward(h *tensor.Matrix) *tensor.Matrix {
	out := e.localAggregate(h)
	e.remote(h, out, false)
	return out
}

// Backward: gradients flow along the transposed edges, dst partition → src
// partition, through the reversed semantics.
func (e *Oracle) Backward(g *tensor.Matrix) *tensor.Matrix {
	out := e.localAggregate(g)
	e.remote(g, out, true)
	return out
}

// localAggregate computes the within-partition part of Â·h (self loops plus
// same-partition neighbors); no traffic.
func (e *Oracle) localAggregate(h *tensor.Matrix) *tensor.Matrix {
	n := e.core.G.NumNodes()
	if h.Rows != n {
		panic(fmt.Sprintf("oracle: matrix rows %d, graph nodes %d", h.Rows, n))
	}
	out := tensor.New(n, h.Cols)
	for r := 0; r < e.nparts; r++ {
		for _, u := range e.core.Own[r] {
			fu := e.core.Coeff[u]
			orow := out.Row(int(u))
			tensor.AXPY(fu*fu, h.Row(int(u)), orow)
			for _, v := range e.core.G.Neighbors(u) {
				if e.core.Part[v] == r {
					tensor.AXPY(fu*e.core.Coeff[v], h.Row(int(v)), orow)
					e.aggFlops += int64(2 * h.Cols)
				}
			}
		}
	}
	return out
}

// remote adds the cross-partition contributions into out: receiver by
// receiver, each walking its peers in ascending order. In the backward
// direction the traffic flows dst→src along the same structures.
func (e *Oracle) remote(h, out *tensor.Matrix, backward bool) {
	round := e.round
	e.round++

	// Delayed transmission replays the whole stale remote contribution
	// (bypassed entirely during a forced-fresh evaluation pass).
	if e.delay != nil && !e.freshEval && !e.delay.ShouldTransmit(e.epoch) {
		if stale := e.delay.Load(round); stale != nil {
			tensor.AddInPlace(out, stale)
			return
		}
	}

	target := out
	if e.delay != nil && !e.freshEval {
		target = tensor.New(out.Rows, out.Cols)
	}
	for r := 0; r < e.nparts; r++ {
		for peer := 0; peer < e.nparts; peer++ {
			if peer != r {
				e.exchangePair(r, peer, h, target, backward, round)
			}
		}
	}
	for p := range e.sent {
		e.fabric.Fold(p, &e.sent[p])
	}
	if target != out {
		e.delay.Store(round, target)
		tensor.AddInPlace(out, target)
	}
}

// pairFor resolves the structural pair index whose traffic receiver r
// consumes from peer in this direction, plus the (from, to) link it rides.
// Forward: pair (peer→r) delivers into r's rows. Backward: pair (r→peer)
// reversed — its sinks live in peer, its sources (the gradient receivers)
// in r — so traffic still flows peer→r.
func (e *Oracle) pairFor(r, peer int, backward bool) (idx, from, to int) {
	if backward {
		return r*e.nparts + peer, peer, r
	}
	return peer*e.nparts + r, peer, r
}

// exchangePair runs one ordered pair's exchange toward receiver r: the shared
// unit walk decides which units survive, and this sink does the rest per unit
// — build the payload in float64 (Fig. 7(b) line 2 for a group:
// h_g = Σ w(u)·f[u]·h_u, the GCN normalization folded in so delivery only
// needs the receiver factor; f[u]·h_u for a per-node unit; rounded to the
// fp32 the wire ships when the pair sends plain payloads), bill it through
// sendPayload, and deliver it straight into delta. The pair's frame is billed
// once the walk is done.
func (e *Oracle) exchangePair(r, peer int, h, delta *tensor.Matrix, backward bool, round int) {
	dim := h.Cols
	idx, from, to := e.pairFor(r, peer, backward)
	ps := &e.core.Pairs[idx]
	coeff := e.core.Coeff
	groups := e.core.Groups(idx, backward)
	if !e.cfg.Semantic {
		e.haloPair(idx, from, to, h, delta, backward, round)
		return
	}
	if cap(e.payload) < dim {
		e.payload = make([]float64, dim)
	}
	payload := e.payload[:dim]
	plain := ps.Bits == 0 // nothing quantises: deliver the fp32 the wire ships
	var bytes, msgs int64
	e.core.Walk(idx, backward, e.epoch, round, func(u exchange.Unit) {
		msgs++
		if u.Group < 0 {
			scale := coeff[u.Sender] * u.Scale
			if plain {
				for i, v := range h.Row(int(u.Sender)) {
					payload[i] = float64(float32(scale * v))
				}
			} else {
				for i, v := range h.Row(int(u.Sender)) {
					payload[i] = scale * v
				}
			}
			bytes += e.sendPayload(ps, round, u.Index, payload)
			tensor.AXPY(coeff[u.Receiver], payload, delta.Row(int(u.Receiver)))
			e.aggFlops += int64(2 * dim)
			return
		}
		grp := groups[u.Group]
		clear(payload)
		for k, m := range grp.SrcNodes {
			tensor.AXPY(grp.WOut[k]*coeff[m]*u.Scale, h.Row(int(m)), payload)
		}
		if plain {
			for i, x := range payload {
				payload[i] = float64(float32(x))
			}
		}
		e.semanticValues += int64(len(grp.SrcNodes) * dim)
		bytes += e.sendPayload(ps, round, u.Index, payload)
		for k, v := range grp.DstNodes {
			tensor.AXPY(grp.DDst[k]*coeff[v], payload, delta.Row(int(v)))
		}
		e.semanticValues += int64(len(grp.DstNodes) * dim)
		e.aggFlops += int64(2 * dim * (len(grp.SrcNodes) + len(grp.DstNodes)))
	})
	if msgs > 0 {
		bytes += wire.FrameHeaderBytes
		if ps.Sampler != nil {
			bytes += int64(e.core.Candidates(idx, backward)+7) / 8
		}
		e.sent[from].Send(to, bytes, msgs)
	}
}

// haloPair is a baseline pair's exchange, defined per cross arc: arc u→v
// carries f[u]·h_u into v's row (backward, f[v]·h_v into u's). The pair's arcs
// are enumerated off the graph in bucket order — sources ascending, each
// one's sinks in the partition ascending — and an arc survives its coin,
// keyed by its sending node, so a node's arcs into the peer survive or drop
// together. A sender ships its row once per peer:
// one message for every node with a surviving arc, built, error-corrected
// (one residual per (sender, peer), keyed by the sending node) and coded at
// its first surviving arc, then delivered along each surviving arc in arc
// order. A frame's candidates are the pair's distinct senders.
func (e *Oracle) haloPair(idx, from, to int, h, delta *tensor.Matrix, backward bool, round int) {
	dim := h.Cols
	ps := &e.core.Pairs[idx]
	coeff := e.core.Coeff
	var arcs []graph.Edge
	for _, u := range e.core.Own[idx/e.nparts] {
		for _, v := range e.core.G.Neighbors(u) {
			if e.core.Part[v] == idx%e.nparts {
				arcs = append(arcs, graph.Edge{U: u, V: v})
			}
		}
	}
	var coins compress.Sampler
	scale := 1.0
	if ps.Sampler != nil {
		coins = ps.Sampler.At(e.epoch, round)
		scale = coins.Scale()
		e.sampleEdges += int64(len(arcs))
	}
	candidates := make(map[int32]bool)
	arrived := make(map[int32][]float64) // sender → what its message delivers
	var bytes, msgs int64
	for _, arc := range arcs {
		sender, receiver := arc.U, arc.V
		if backward {
			sender, receiver = receiver, sender
		}
		candidates[sender] = true
		if ps.Sampler != nil && !coins.Coin(int64(sender)) {
			continue
		}
		payload, ok := arrived[sender]
		if !ok {
			payload = make([]float64, dim)
			for i, v := range h.Row(int(sender)) {
				payload[i] = coeff[sender] * scale * v
				if ps.Bits == 0 {
					payload[i] = float64(float32(payload[i]))
				}
			}
			bytes += e.sendPayload(ps, round, int64(sender), payload)
			msgs++
			arrived[sender] = payload
		}
		tensor.AXPY(coeff[receiver], payload, delta.Row(int(receiver)))
		e.aggFlops += int64(2 * dim)
	}
	if msgs > 0 {
		bytes += wire.FrameHeaderBytes
		if ps.Sampler != nil {
			bytes += int64(len(candidates)+7) / 8
		}
		e.sent[from].Send(to, bytes, msgs)
	}
}

// sendPayload replaces a quantized pair's payload in place by what the
// receiver reconstructs from the bytes the wire runtimes ship for it (a plain
// payload arrives already rounded to fp32) and returns the message's codec
// bytes. unit is the candidate-unit index within (pair, round);
// dropped candidates consume an index too, so error-feedback keys stay
// aligned across epochs.
func (e *Oracle) sendPayload(ps *exchange.PairState, round int, unit int64, payload []float64) int64 {
	// Residual error feedback: correct the payload by last round's
	// quantization error for this transfer unit, then record the new error.
	var trueVals []float64
	var efKey int64
	if ps.EF != nil {
		efKey = compress.RoundUnitKey(round, unit)
		ps.EF.PreCompress(efKey, payload)
		trueVals = append(e.efTrue[:0], payload...)
		e.efTrue = trueVals
	}
	bytes := wire.ValueBytes * len(payload)
	if ps.Bits > 0 {
		e.quantValues += int64(len(payload))
		if ps.Adaptive != nil {
			bytes = ps.Adaptive.Roundtrip(payload)
		} else {
			bytes = (&compress.Quantizer{Bits: ps.Bits}).Roundtrip(payload)
		}
	}
	if ps.EF != nil {
		ps.EF.PostCompress(efKey, trueVals, payload)
	}
	return int64(bytes)
}
