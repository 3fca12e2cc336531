// Package worker is the distributed runtime of the reproduction: P workers,
// one per partition, that exchange *real* serialized messages (internal/wire)
// during every aggregate round — the closest laptop-scale analogue of the
// paper's multi-GPU deployment. It holds the one round body (sendHalf,
// recvHalf) and the two ways to drive it: Cluster runs all P workers in one
// process, handing the frames over through in-memory slots — it is the runtime
// behind every modeled figure too, which dist.Run trains on; Peer runs one
// worker in its own OS process, with internal/net carrying the frames over
// sockets.
//
// The runtime executes the full Fig. 12(b) method matrix — vanilla halo
// exchange, SC-GNN semantic compression, Bernoulli boundary-node sampling, fixed
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
// the same type; NewClusterFromConfig and NewPeer take nothing else).
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
// A Cluster keeps no goroutine between rounds. Each aggregate round the
// coordinator (the goroutine calling Forward, Backward, or AggregateInto —
// there must be exactly one at a time) publishes the round inputs and runs two
// fork-joins over the partitions, each on one goroutine per partition that
// exits at the join (on the coordinator's own when there is one partition).
// The first runs every worker's send half:
//
//	local-boundary — the rows its outgoing halo reads
//	send           — encode the halo into retained wire.Batch buffers, one
//	                 framed buffer per peer, into the peer's per-sender slot
//
// and, every frame of the round now existing, the second its receive half:
//
//	local-interior — the remaining owned rows
//	receive        — stream-decode the nparts−1 inbound buffers, in ascending
//	                 sender order, each unit into the staging row of its
//	                 candidate index, then gather each frame's staged units
//	                 into the output rows it owns over its receive plan
//
// A Peer runs the same two halves back to back, over its transport. The join
// between the fork-joins is the round's only synchronisation: every slot is
// written in the first and read in the second. Because every row sums its
// remote contributions in sender order, a cluster's output is bit-identical
// from run to run at any nparts and any GOMAXPROCS — and bit-identical to the
// same round run by Peers over any transport, where frames arrive in any
// order. After the second join the coordinator folds each worker's tally —
// its traffic and processing counters — into the fabric in worker order, so
// the totals are exact and schedule-free. Slots, encode buffers, payload scratch and the goroutines'
// entry points are retained across rounds: a steady-state round performs no
// allocations.
//
// # Buffer-reuse contract
//
// Encoded buffers are owned by their sending worker and reused the very next
// round; receivers must fully consume a buffer during the round it was
// delivered (the streaming decoder copies values out as it accumulates) and
// must not retain it or any decoded payload view past the end of the round.
//
// # Errors and shutdown
//
// A mis-shaped input or a corrupt inbound batch never panics inside a task
// goroutine (which would kill the process): AggregateInto returns the error,
// and after a failed exchange the cluster is permanently poisoned — every
// later round returns the same error, since workers may have dropped
// contributions mid-round. Forward/Backward, whose gnn.Aggregator signatures
// have no error result, panic with that error on the *caller's* goroutine,
// where it is recoverable. Close only marks the cluster closed — later rounds
// return an error; there is nothing to release, so a cluster may as well be
// dropped. It is idempotent and must not race a round in flight.
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

// Cluster runs the workers of every partition in one process, jointly
// computing the partitioned GCN aggregate Â·h. It implements gnn.Aggregator, so
// models train on it unchanged. Rounds must be driven by one goroutine at a
// time; Traffic, CaptureEpoch, and ResetTraffic may be called concurrently
// with rounds.
type Cluster struct {
	exchanger

	// Accounting is tally-and-fold instead of hot-loop atomics: each worker
	// records its sends and its processing on its own tally (no cross-core
	// contention during the round), and the tallies are folded into the
	// fabric after the round's last join, in worker order, so every total is
	// exact and schedule-free.
	trafficMu sync.Mutex
	fabric    *simnet.Fabric

	// slots[t*nparts+s] is sender s's frame for receiver t this round: written
	// by s in the first fork-join, read by t in the second. The bytes stay
	// owned by s's retained encode batch, which is not reset before s's next
	// send half.
	slots  [][]byte
	closed atomic.Bool

	// The fork-join: goroutine p is started on tasks[p], which runs the
	// round's current half for partition p — a closure bound once, so the go
	// statement allocates nothing. Empty when there is one partition: the
	// caller runs it.
	tasks []func()
	join  sync.WaitGroup

	// Round inputs: written by the coordinator before each fork, read by the
	// tasks after — the go statement orders the accesses. roundTarget and
	// roundReplay are beginRound's resolution, roundRecv selects the half.
	roundH, roundOut, roundTarget         *tensor.Matrix
	roundBackward, roundReplay, roundRecv bool
	// roundErrs[p] is worker p's error for the round (nil if clean); each
	// entry is written only by the task that ran p's receive half.
	roundErrs []error
}

// NewClusterFromConfig builds a cluster running the method combination cfg
// selects. A round fans over one goroutine per partition. An invalid
// partition or configuration panics.
func NewClusterFromConfig(g *graph.Graph, part []int, nparts int, cfg exchange.Config) *Cluster {
	c := &Cluster{
		exchanger: *newExchanger(g, part, nparts, -1, cfg),
		fabric:    simnet.NewFabric(nparts),
		slots:     make([][]byte, nparts*nparts),
		roundErrs: make([]error, nparts),
	}
	for p := 0; p < nparts && nparts > 1; p++ {
		c.tasks = append(c.tasks, func() {
			defer c.join.Done()
			c.runHalf(p)
		})
	}
	return c
}

// Fabric exposes the per-link traffic accounting (read-only use intended, and
// not while a round or a ResetTraffic is in flight).
func (c *Cluster) Fabric() *simnet.Fabric { return c.fabric }

// StartEpoch marks an epoch boundary: it resets the aggregate-round slot
// that keys error-feedback residuals and the delay cache, and advances the
// delayed-transmission schedule to the given epoch (gnn.Trainer.RunEpoch
// calls this through the gnn.EpochMarker interface). With variable-rate scheduling the
// boundary is also the decision point: the scheduler reads every pair's
// signal snapshot, runs the pure decision function, and pairs whose rung
// changed are reseeded from scratch.
func (c *Cluster) StartEpoch(epoch int) {
	c.core.Advance(epoch)
	c.startEpoch(epoch)
}

// StartEvalEpoch prepares a measurement-only pass: like StartEpoch, but
// delayed transmission is bypassed — the pass computes fresh remote
// contributions without reading or writing the delay cache.
// gnn.Trainer.Finish calls this through the gnn.EvalMarker interface with the
// actual next epoch before the final accuracy pass.
func (c *Cluster) StartEvalEpoch(epoch int) {
	c.StartEpoch(epoch)
	c.freshEval = true
}

// ReuseRound implements gnn.RoundReuser: a layer may keep the forward
// aggregate it last ran on an unchanged input as exchange.ReusePolicy allows
// — the exchange is reproducible and the core's Generation has not moved. A
// closed cluster reuses nothing; see exchanger.reusable for the rest.
func (c *Cluster) ReuseRound(gen uint64) (uint64, bool) {
	if c.closed.Load() {
		return 0, false
	}
	return c.reusable(gen)
}

// Close marks the cluster closed: later rounds return an error. There is
// nothing to release — no goroutine outlives a round — so a cluster that is
// simply dropped leaks nothing. It is idempotent, must not race a round in
// flight, and leaves traffic counters readable.
func (c *Cluster) Close() { c.closed.Store(true) }

// ResetTraffic clears the traffic and processing counters.
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

// CaptureEpoch freezes everything the cost model reads, accumulated since the
// last reset: the per-link traffic and the processing counters of the rounds
// that produced it.
func (c *Cluster) CaptureEpoch() simnet.Snapshot {
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

// AggregateInto runs one round into dst (which it zeroes first) as two
// fork-joins over the partitions: every worker's send half — its boundary
// rows and one encoded frame into each peer's slot — then, the join between
// them being the round's only barrier, every worker's receive half — its
// interior rows and its peers' frames decoded in ascending sender order into
// the rows it owns. A delayed-transmission replay has no second half. Reusing
// one dst across rounds makes the steady state allocation-free. A mis-shaped
// h or dst is an error before anything runs; an error from the round itself
// means the output is unusable and the cluster is poisoned (see the package
// comment).
func (c *Cluster) AggregateInto(dst, h *tensor.Matrix, backward bool) error {
	if c.closed.Load() {
		return errors.New("worker: cluster is closed")
	}
	target, replay, err := c.beginRound(dst, h)
	if err != nil {
		return err
	}
	c.roundH, c.roundOut, c.roundTarget = h, dst, target
	c.roundBackward, c.roundReplay, c.roundRecv = backward, replay, false
	c.forkJoin()
	if !replay {
		c.roundRecv = true
		c.forkJoin()
	}
	c.roundH, c.roundOut, c.roundTarget = nil, nil, nil
	// Fold each worker's tally into the totals after the join, in worker
	// order — they are independent of goroutine scheduling.
	c.trafficMu.Lock()
	for p := range c.tally {
		c.fabric.Fold(p, &c.tally[p])
	}
	c.trafficMu.Unlock()
	return c.endRound(target, dst, replay, errors.Join(c.roundErrs...))
}

// forkJoin runs the round's current half for every partition and returns
// when all have: on the caller's goroutine when the cluster has no tasks, else
// on one goroutine per partition, which are past their last access to the
// cluster when it returns.
func (c *Cluster) forkJoin() {
	if len(c.tasks) == 0 {
		for p := 0; p < c.core.NParts; p++ {
			c.runHalf(p)
		}
		return
	}
	c.join.Add(len(c.tasks))
	for _, task := range c.tasks {
		go task()
	}
	c.join.Wait()
}

// runHalf is worker me's share of the current fork-join, over the in-process
// transport: send stores a slot, which cannot fail — so neither can the send
// half; recv reads the slots me's peers filled, in ascending sender order. A
// decode error is kept for the round's end. A replay round's whole body is its
// first half.
func (c *Cluster) runHalf(me int) {
	np := c.core.NParts
	switch {
	case c.roundReplay:
		c.replayRound(me, c.roundH, c.roundOut, c.roundTarget)
	case !c.roundRecv:
		_ = c.sendHalf(me, c.roundH, c.roundOut, c.roundBackward, func(peer int, frame []byte) error {
			c.slots[peer*np+me] = frame
			return nil
		})
	default:
		from := 0
		c.roundErrs[me] = c.recvHalf(me, c.roundH, c.roundOut, c.roundTarget, c.roundBackward, func() (int, []byte, error) {
			if from == me {
				from++
			}
			from++
			return from - 1, c.slots[me*np+from-1], nil
		})
	}
}
