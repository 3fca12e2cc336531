// Package worker is the distributed runtime of the reproduction: P workers,
// one per partition, that exchange *real* serialized messages (internal/wire)
// during every aggregate round — the closest laptop-scale analogue of the
// paper's multi-GPU deployment. It holds the one round body (runRound) and the
// three ways to drive it: Cluster runs all P workers as parked goroutines over
// in-process channels; Peer runs one of them in its own OS process, with
// internal/net carrying the frames over sockets; Rounds runs none — it hands
// the two halves of a round to a caller's schedule over in-memory slots, which
// is how dist.Engine, the runtime behind every modeled figure, executes it.
//
// The runtime executes the full Fig. 12(b) method matrix — vanilla per-edge
// exchange, SC-GNN semantic compression, Bernoulli edge/node sampling, fixed
// and variance-adaptive wire quantization, quantized error feedback, and
// delayed transmission — with actual fp32 wire encoding and bytes measured
// off the encoded buffers. Tests assert that its aggregates and its measured
// bytes equal, exactly and for every method combination, those of a
// definitional oracle that shares none of its plans, kernels or wire code
// (oracle_test.go).
//
// # One exchange core, one configuration
//
// What is exchanged — which units exist, which survive sampling, at which
// width they ship, which residuals they carry — is decided by the
// internal/exchange core, configured by one exchange.Config (dist.Config is
// the same type; NewClusterFromConfig, NewPeer, NewRounds take nothing else).
// This package adds the wire: a sink that turns each surviving unit into a
// framed message, the streaming decode on the other side, and the round
// schedule.
//
// # Delayed transmission
//
// With Config.DelayPeriod > 1, each aggregate-round slot keeps a retained
// delta matrix: fresh rounds (epoch % period == 0, or an unfilled slot)
// decode the remote contributions into the slot and add it to the output;
// replay rounds add the cached slot with zero traffic. StartEvalEpoch forces
// a fresh pass that neither reads nor writes the cache, so a final evaluation
// never scores the model against stale replays. The decision is made once per
// round before any worker runs, so every worker agrees on it.
//
// # Round protocol
//
// NewClusterFromConfig spawns the nparts workers once; they stay parked
// between rounds. Each aggregate round the coordinator (the goroutine calling
// Forward, Backward, or AggregateInto — there must be exactly one at a time)
// publishes the round inputs, releases every worker through its start
// channel, and blocks on a barrier. Each worker runs the one round body
// (runRound) a Peer also runs:
//
//	local-boundary — the rows its outgoing halo reads
//	send           — encode the halo into retained wire.Batch buffers, one
//	                 framed buffer per peer, into the peer's per-sender inbox
//	local-interior — the remaining owned rows, overlapping the peers' work
//	receive        — stream-decode the nparts−1 inbound buffers, in ascending
//	                 sender order, straight into the output rows it owns
//
// and signals the barrier. Because every row sums its remote contributions
// in sender order, not arrival order, a cluster's output is bit-identical
// from run to run at any nparts — and bit-identical to the same round run by
// Peers over any transport. After the barrier the coordinator drains each
// worker's traffic shard into the fabric in worker order, so per-link totals
// are exact and schedule-free. Inboxes, encode buffers, and payload scratch
// are retained across rounds: a steady-state round performs no allocations.
//
// # Buffer-reuse contract
//
// Encoded buffers are owned by their sending worker and reused the very next
// round; receivers must fully consume a buffer during the round it was
// delivered (the streaming decoder copies values out as it accumulates) and
// must not retain it or any decoded payload view past the round barrier.
//
// # Errors and shutdown
//
// A mis-shaped input or a corrupt inbound batch never panics inside a worker
// goroutine (which would kill the process): AggregateInto returns the error,
// and after a failed exchange the cluster is permanently poisoned — every
// later round returns the same error, since workers may have dropped
// contributions mid-round. Forward/Backward, whose gnn.Aggregator signatures
// have no error result, panic with that error on the *caller's* goroutine,
// where it is recoverable. Close releases the worker goroutines; it is
// idempotent and must not race a round in flight.
package worker

import (
	"errors"
	"sync"
	"sync/atomic"

	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
)

// Cluster is a persistent pool of goroutine workers jointly computing the
// partitioned GCN aggregate Â·h. It implements gnn.Aggregator, so models
// train on it unchanged. Rounds must be driven by one goroutine at a time;
// Traffic, Snapshot, and ResetTraffic may be called concurrently with rounds.
type Cluster struct {
	exchanger

	// Traffic accounting is shard-and-merge instead of hot-loop atomics: each
	// worker records its sends on its own ShardCounter (no cross-core
	// contention during the round) and the counters are drained into the
	// fabric after the round barrier, in worker order, so per-link totals are
	// exact and schedule-free.
	trafficMu sync.Mutex
	fabric    *simnet.Fabric

	// inbox[t*nparts+s] is the one-slot mailbox for sender s's batch to
	// receiver t: exactly one buffer per round, drained by t in ascending s.
	inbox []chan []byte
	// start[p] releases worker p into the next round.
	start   []chan struct{}
	quit    chan struct{}
	barrier sync.WaitGroup
	closed  atomic.Bool
	once    sync.Once

	// Round inputs: written by the coordinator before the start signals,
	// read by workers after — the channel send orders the accesses.
	// roundTarget and roundReplay are beginRound's resolution.
	roundH, roundOut, roundTarget *tensor.Matrix
	roundBackward, roundReplay    bool
	// roundErrs[p] is worker p's error for the round (nil if clean); each
	// entry is written only by its owner during the round.
	roundErrs []error
}

// NewClusterFromConfig builds a cluster running the method combination cfg
// selects and spawns its nparts persistent workers. An invalid partition or configuration panics. Call Close when done
// with the cluster to release the worker goroutines.
func NewClusterFromConfig(g *graph.Graph, part []int, nparts int, cfg exchange.Config) *Cluster {
	c := &Cluster{
		exchanger: *newExchanger(g, part, nparts, -1, cfg),
		fabric:    simnet.NewFabric(nparts),
		inbox:     make([]chan []byte, nparts*nparts),
		start:     make([]chan struct{}, nparts),
		quit:      make(chan struct{}),
		roundErrs: make([]error, nparts),
	}
	for i := range c.inbox {
		c.inbox[i] = make(chan []byte, 1)
	}
	for p := range c.start {
		c.start[p] = make(chan struct{})
		go c.run(p)
	}
	return c
}

// StartEpoch marks an epoch boundary: it resets the aggregate-round slot
// that keys error-feedback residuals and the delay cache, and advances the
// delayed-transmission schedule to the given epoch (gnn.Train calls this
// through the gnn.EpochMarker interface). With variable-rate scheduling the
// boundary is also the decision point: the scheduler reads every pair's
// signal snapshot, runs the pure decision function, and pairs whose rung
// changed are reseeded from scratch.
func (c *Cluster) StartEpoch(epoch int) {
	c.core.Advance(epoch)
	c.startEpoch(epoch)
}

// StartEvalEpoch prepares a measurement-only pass: like StartEpoch, but
// delayed transmission is bypassed — the pass computes fresh remote
// contributions without reading or writing the delay cache. gnn.Train calls
// this through the gnn.EvalMarker interface with the actual next epoch
// before the final accuracy pass.
func (c *Cluster) StartEvalEpoch(epoch int) {
	c.StartEpoch(epoch)
	c.freshEval = true
}

// Close releases the persistent worker goroutines. It is idempotent, must
// not race a round in flight, and leaves traffic counters readable.
func (c *Cluster) Close() {
	c.once.Do(func() {
		c.closed.Store(true)
		close(c.quit)
	})
}

// ResetTraffic clears the byte/message counters.
func (c *Cluster) ResetTraffic() {
	c.trafficMu.Lock()
	defer c.trafficMu.Unlock()
	c.fabric.Reset()
}

// Traffic returns the real encoded bytes and message count since the last
// reset.
func (c *Cluster) Traffic() (bytes, msgs int64) {
	c.trafficMu.Lock()
	defer c.trafficMu.Unlock()
	return c.fabric.TotalBytes(), c.fabric.TotalMessages()
}

// Snapshot freezes the per-link traffic accumulated since the last reset
// (the fabric half of what dist.Engine.CaptureEpoch reports), for cost-model
// consumers.
func (c *Cluster) Snapshot() simnet.Snapshot {
	c.trafficMu.Lock()
	defer c.trafficMu.Unlock()
	return c.fabric.Capture()
}

// Forward implements gnn.Aggregator with a concurrent halo exchange. It
// panics (recoverably, on the caller's goroutine) if the round fails; use
// AggregateInto to receive the error instead.
func (c *Cluster) Forward(h *tensor.Matrix) *tensor.Matrix { return c.mustAggregate(h, false) }

// Backward implements gnn.Aggregator; gradients flow along transposed edges.
// It panics (recoverably, on the caller's goroutine) if the round fails; use
// AggregateInto to receive the error instead.
func (c *Cluster) Backward(g *tensor.Matrix) *tensor.Matrix { return c.mustAggregate(g, true) }

func (c *Cluster) mustAggregate(h *tensor.Matrix, backward bool) *tensor.Matrix {
	out := tensor.New(h.Rows, h.Cols)
	if err := c.AggregateInto(out, h, backward); err != nil {
		panic(err)
	}
	return out
}

// AggregateInto runs one concurrent round into dst (which it zeroes first):
// every worker computes its local aggregate, encodes its outgoing halo as
// wire batches, exchanges them over channels, and accumulates the decoded
// remote contributions into the rows it owns. Reusing one dst across rounds
// makes the steady state allocation-free. A mis-shaped h or dst is an error
// before anything runs; an error from the round itself means the output is
// unusable and the cluster is poisoned (see the package comment).
func (c *Cluster) AggregateInto(dst, h *tensor.Matrix, backward bool) error {
	if c.closed.Load() {
		return errors.New("worker: cluster is closed")
	}
	target, replay, err := c.beginRound(dst, h)
	if err != nil {
		return err
	}
	c.roundH, c.roundOut, c.roundTarget = h, dst, target
	c.roundBackward, c.roundReplay = backward, replay
	c.barrier.Add(len(c.start))
	for _, ch := range c.start {
		ch <- struct{}{}
	}
	c.barrier.Wait()
	c.roundH, c.roundOut, c.roundTarget = nil, nil, nil
	// Drain each worker's round traffic into the fabric after the barrier,
	// in worker order — totals are independent of goroutine scheduling.
	c.trafficMu.Lock()
	for _, sc := range c.counters {
		c.fabric.Drain(sc)
	}
	c.trafficMu.Unlock()
	return c.endRound(target, dst, replay, errors.Join(c.roundErrs...))
}

// run is the persistent worker loop: park until released, execute the round
// body over the in-process transport, hit the barrier, repeat. The transport
// is one one-slot channel per (receiver, sender): send never fails or blocks
// (one buffer per slot per round), and recv drains the senders in ascending
// order — a late sender stalls the receiver behind it (head-of-line), which
// is the price of an arrival-order-free sum.
func (c *Cluster) run(me int) {
	np := c.core.NParts
	send := func(peer int, frame []byte) error {
		c.inbox[peer*np+me] <- frame
		return nil
	}
	from := 0
	recv := func() ([]byte, error) {
		if from == me {
			from++
		}
		frame := <-c.inbox[me*np+from]
		from++
		return frame, nil
	}
	for {
		select {
		case <-c.quit:
			return
		case <-c.start[me]:
		}
		from = 0
		c.roundErrs[me] = c.runRound(me, c.roundH, c.roundOut, c.roundTarget,
			c.roundBackward, c.roundReplay, false, send, recv)
		c.barrier.Done()
	}
}
