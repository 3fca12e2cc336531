package net

import (
	"errors"
	"fmt"
	stdnet "net"
	"slices"
	"sync"
	"time"

	"scgnn/internal/dist"
	"scgnn/internal/exchange"
	"scgnn/internal/graph"
	"scgnn/internal/sched"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
)

// CoordOptions tunes the coordinator's transport behavior.
type CoordOptions struct {
	// Dial opens a control connection to a node (default stdlib dialer).
	Dial func(network, addr string) (stdnet.Conn, error)
	// DialRetries and DialBackoff shape the retry schedule while a node
	// process is still starting. Defaults: 10 retries, 20ms doubling.
	DialRetries int
	DialBackoff time.Duration
	// RoundTimeout bounds each control request round-trip. Default 30s.
	// Setup waits for full mesh assembly and gets 2x, and so do rounds.
	RoundTimeout time.Duration
	// Logf receives progress lines (default: discarded).
	Logf func(format string, args ...any)
}

func (o CoordOptions) withDefaults() CoordOptions {
	if o.Dial == nil {
		o.Dial = stdnet.Dial
	}
	if o.DialRetries == 0 {
		o.DialRetries = 10
	}
	if o.DialBackoff == 0 {
		o.DialBackoff = 20 * time.Millisecond
	}
	if o.RoundTimeout == 0 {
		o.RoundTimeout = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Coordinator owns the training loop of a multi-process deployment: the
// model, features, and optimizer live here, the nodes hold only partition
// runtime state. It implements gnn.Aggregator by scattering owned feature
// rows to every node, releasing them into one lockstep round over their data
// mesh, and gathering the aggregated rows back — so a gnn.Trainer drives a
// socket deployment exactly the way it drives the in-process engine.
// Transport failures surface as panics carrying typed errors, which the
// Trainer's recovery converts into errors the caller can errors.Is against.
type Coordinator struct {
	opts  CoordOptions
	addrs []string
	conns []*framed

	g      *graph.Graph
	part   []int
	nparts int
	cfg    dist.Config
	own    [][]int32
	gen    uint32
	seq    uint64
	sched  *sched.Scheduler

	// The gnn.RoundReuser state: aggGen moves on every event that can change
	// what a round computes on a fixed input (Setup, a rung change,
	// Repartition, RestoreStates); epoch is the pass's epoch and eval marks a
	// measurement-only pass; round is the next round's ordinal in the pass,
	// and skipped says a round has been served from the model's buffer since
	// the last Round frame, which must then carry it.
	aggGen  uint64
	epoch   int
	eval    bool
	round   int
	skipped bool

	fabric *simnet.Fabric
	shard  *simnet.ShardCounter
	work   simnet.Work // the nodes' processing counters since the epoch began
	dones  []RoundDone // the replies of the round in flight, by node

	// The epoch marker's and the round's fanOut runs, bound at construction,
	// with their frames in fields: a steady epoch allocates nothing.
	epochRuns, roundRuns []func()
	fanErrs              []error
	fanWG                sync.WaitGroup
	epochMsg             Epoch
	rounds               []Round
	dst                  *tensor.Matrix

	mu sync.Mutex // guards conns for Close from other goroutines
}

// NewCoordinator prepares a coordinator for the given node control
// addresses (index = partition id). No connection is made until Connect.
func NewCoordinator(addrs []string, opts CoordOptions) *Coordinator {
	c := &Coordinator{
		opts:    opts.withDefaults(),
		addrs:   addrs,
		conns:   make([]*framed, len(addrs)),
		nparts:  len(addrs),
		fabric:  simnet.NewFabric(len(addrs)),
		shard:   simnet.NewShardCounter(len(addrs)),
		dones:   make([]RoundDone, len(addrs)),
		rounds:  make([]Round, len(addrs)),
		fanErrs: make([]error, len(addrs)),
	}
	epochOn := func(i int) error { return c.requestAck(i, frameEpoch, &c.epochMsg, c.opts.RoundTimeout) }
	for i := range addrs {
		c.epochRuns, c.roundRuns = append(c.epochRuns, c.bind(i, epochOn)), append(c.roundRuns, c.bind(i, c.roundOn))
	}
	return c
}

// Connect dials every node's control channel with retry/backoff, closing
// any it held first. It starts a run, and it starts the one recovery path:
// after a failure (a node killed and respawned on its address, a torn mesh),
// Connect, Setup on the partition in force (Part) and ResumeCheckpoint (or
// RestoreStates) rewind the whole fleet to the checkpoint.
func (c *Coordinator) Connect() error {
	c.Close()
	for i, addr := range c.addrs {
		conn, err := dialRetry(c.opts.Dial, addr, c.opts.DialRetries, c.opts.DialBackoff)
		if err != nil {
			return fmt.Errorf("net: coordinator dial node %d: %w", i, err)
		}
		fc := &framed{conn: conn}
		if err := fc.write(frameHello, Hello{Sender: CoordID}); err != nil {
			conn.Close()
			return fmt.Errorf("net: coordinator hello to node %d: %w", i, err)
		}
		c.mu.Lock()
		c.conns[i] = fc
		c.mu.Unlock()
	}
	return nil
}

// Close tears down every control connection (without shutting nodes down).
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, fc := range c.conns {
		if fc != nil {
			fc.conn.Close()
			c.conns[i] = nil
		}
	}
}

// request performs one synchronous control round-trip with node i, whose
// response must be a want frame; its payload is valid until the next one.
func (c *Coordinator) request(i int, ft frameType, m encoder, want frameType, timeout time.Duration) ([]byte, error) {
	c.mu.Lock()
	fc := c.conns[i]
	c.mu.Unlock()
	if fc == nil {
		return nil, fmt.Errorf("node %d: not connected: %w", i, ErrPeerDown)
	}
	fc.conn.SetDeadline(time.Now().Add(timeout))
	defer fc.conn.SetDeadline(time.Time{})
	if err := fc.write(ft, m); err != nil {
		return nil, fmt.Errorf("node %d: %w: %v", i, ErrPeerDown, err)
	}
	if ft == frameSetup {
		fc.release()
	}
	rft, resp, err := fc.read()
	if err != nil {
		return nil, fmt.Errorf("node %d: %w: %v", i, ErrPeerDown, err)
	}
	if rft != want {
		return nil, fmt.Errorf("node %d: %w: response type %d, want %d", i, ErrProtocol, rft, want)
	}
	return resp, nil
}

// requestAck performs a round-trip whose response must be a clean Ack.
func (c *Coordinator) requestAck(i int, ft frameType, m encoder, timeout time.Duration) error {
	resp, err := c.request(i, ft, m, frameAck, timeout)
	if err != nil {
		return err
	}
	ack, err := decodeAck(resp)
	if err != nil {
		return fmt.Errorf("node %d: %w", i, err)
	}
	if ack.Err != "" {
		return fmt.Errorf("node %d: %w: %s", i, ErrRemote, ack.Err)
	}
	return nil
}

// broadcast runs fn for every node concurrently and returns the nodes'
// errors joined in node order (all goroutines are always awaited).
func (c *Coordinator) broadcast(fn func(i int) error) error {
	runs := make([]func(), c.nparts)
	for i := range runs {
		runs[i] = c.bind(i, fn)
	}
	return c.fanOut(runs)
}

// bind returns the fanOut run that sets fanErrs[i] to fn(i).
func (c *Coordinator) bind(i int, fn func(i int) error) func() {
	return func() {
		defer c.fanWG.Done()
		c.fanErrs[i] = fn(i)
	}
}

// fanOut runs every run on a goroutine of its own and joins fanErrs once all
// are done. One fan-out runs at a time: one goroutine drives the coordinator.
func (c *Coordinator) fanOut(runs []func()) error {
	c.fanWG.Add(len(runs))
	for _, run := range runs {
		go run()
	}
	c.fanWG.Wait()
	return errors.Join(c.fanErrs...)
}

// Setup distributes the training topology: every node receives the graph,
// the partition vector, the method config, and the peer address list,
// rebuilds its peer from them, and assembles the data mesh at a new
// generation, so a late dial from an earlier assembly is refused. Must run
// concurrently across nodes (mesh assembly blocks until all peers dial in),
// which broadcast provides. A grouping similarity the Setup frame cannot name
// is an error before anything is sent.
func (c *Coordinator) Setup(g *graph.Graph, part []int, cfg dist.Config) error {
	if len(part) != g.NumNodes() {
		return fmt.Errorf("net: partition length %d, graph has %d nodes", len(part), g.NumNodes())
	}
	if _, err := simByte(cfg.Plan.Grouping.Sim); err != nil {
		return err
	}
	c.g = g
	c.part = append([]int(nil), part...)
	c.cfg = cfg
	c.gen++
	c.aggGen++
	c.sched = nil
	if cfg.Sched.Enabled {
		c.sched = sched.New(cfg.Sched, cfg.BaseSetting(), cfg.Seed, c.nparts*c.nparts)
	}
	c.rebuildOwn()
	shared := c.setupShared()
	return c.broadcast(func(i int) error {
		m := Setup{NParts: int32(c.nparts), Me: int32(i), Gen: c.gen, shared: shared}
		return c.requestAck(i, frameSetup, m, 2*c.opts.RoundTimeout)
	})
}

// setupShared encodes the node-independent part of the Setup frame, once.
func (c *Coordinator) setupShared() []byte {
	edges := c.g.Edges()
	m := Setup{
		Addrs: c.addrs,
		Nodes: int32(c.g.NumNodes()),
		EdgeU: make([]int32, len(edges)),
		EdgeV: make([]int32, len(edges)),
		Part:  toInt32s(c.part),
		Cfg:   c.cfg,
	}
	for k, e := range edges {
		m.EdgeU[k], m.EdgeV[k] = e.U, e.V
	}
	var w cwriter
	m.encodeShared(&w)
	return w.b
}

func (c *Coordinator) rebuildOwn() {
	c.own = make([][]int32, c.nparts)
	for u, p := range c.part {
		c.own[p] = append(c.own[p], int32(u))
	}
}

// StartEpoch resets the per-epoch traffic capture, runs the schedule step
// (when variable-rate scheduling is on), and marks the epoch boundary on
// every node with an Epoch frame carrying the decided levels, which each node
// applies before it starts the epoch — the same boundary the self-advancing
// runtimes reconfigure their pair streams on.
func (c *Coordinator) StartEpoch(epoch int) { c.startEpoch(epoch, false) }

// StartEvalEpoch marks a measurement-only pass on every node. The schedule
// still advances: the in-process runtimes run their epoch prologue on eval
// passes too, and equivalence demands identical decision sequences.
func (c *Coordinator) StartEvalEpoch(epoch int) { c.startEpoch(epoch, true) }

func (c *Coordinator) startEpoch(epoch int, eval bool) {
	c.fabric.Reset()
	c.work = simnet.Work{}
	c.epoch, c.eval, c.round, c.skipped = epoch, eval, 0, false
	c.epochMsg = Epoch{Epoch: int32(epoch), Eval: eval}
	if c.sched != nil {
		c.mustSchedule(epoch)
		c.epochMsg.Levels = toInt32s(c.sched.Levels())
	}
	if err := c.fanOut(c.epochRuns); err != nil {
		panic(fmt.Errorf("net: epoch marker: %w", err))
	}
}

// mustSchedule performs one epoch-boundary schedule step: gather every
// node's signal snapshot, merge them under the sched exactness contract, and
// run the pure decision function. The gather fans out concurrently; the
// decision itself happens once, on the coordinator, so the fleet cannot
// split-brain a schedule.
func (c *Coordinator) mustSchedule(epoch int) {
	c.seq++
	seq := c.seq
	perNode := make([][]sched.Signals, c.nparts)
	err := c.broadcast(func(i int) error {
		resp, err := c.request(i, frameSchedSig, SchedSig{Seq: seq}, frameSchedSig, c.opts.RoundTimeout)
		if err != nil {
			return err
		}
		sig, err := decodeSchedSig(resp)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if sig.Err != "" {
			return fmt.Errorf("node %d: %w: %s", i, ErrRemote, sig.Err)
		}
		if len(sig.Signals) != c.nparts*c.nparts {
			return fmt.Errorf("node %d: %w: %d pair signals, want %d",
				i, ErrProtocol, len(sig.Signals), c.nparts*c.nparts)
		}
		perNode[i] = sig.Signals
		return nil
	})
	if err != nil {
		panic(fmt.Errorf("net: schedule signals: %w", err))
	}
	if len(c.sched.Advance(epoch, sched.MergeNodeSignals(c.nparts, perNode))) > 0 {
		c.aggGen++
	}
}

// ScheduleLevels returns the coordinator's current per-pair schedule levels
// (nil when variable-rate scheduling is off).
func (c *Coordinator) ScheduleLevels() []int {
	if c.sched == nil {
		return nil
	}
	return c.sched.Levels()
}

// ReuseRound implements gnn.RoundReuser for the model the coordinator
// drives, under exchange.ReusePolicy over the nodes' pair settings (the base
// setting or the schedule's rungs); see worker.Cluster.ReuseRound. A reused
// round takes its ordinal without releasing the nodes; the next Round frame
// carries the ordinal they move to.
func (c *Coordinator) ReuseRound(gen uint64) (uint64, bool) {
	if c.g == nil {
		return 0, false
	}
	p := exchange.ReusePolicy{NParts: c.nparts, Setting: c.setting,
		DelayPeriod: c.cfg.DelayPeriod, Epoch: c.epoch, Eval: c.eval}
	cur, reuse := p.Decide(gen, c.aggGen)
	if reuse {
		c.round++
		c.skipped = true
	}
	return cur, reuse
}

// setting is pair idx's current compression setting: its rung under a
// schedule, else the base.
func (c *Coordinator) setting(idx int) sched.Setting {
	if c.sched != nil {
		return c.sched.Setting(idx)
	}
	return c.cfg.BaseSetting()
}

// CaptureEpoch freezes this epoch's traffic and processing counters: per-link
// byte and message totals and the nodes' processing counters, summed in node
// order, identical to the in-process cluster's accounting.
func (c *Coordinator) CaptureEpoch() simnet.Snapshot {
	s := c.fabric.Capture()
	s.Work = c.work
	return s
}

// Fabric exposes the coordinator's traffic fabric.
func (c *Coordinator) Fabric() *simnet.Fabric { return c.fabric }

// Part returns a copy of the partition vector currently in force — the one
// a training checkpoint must record so recovery rebuilds the same shards.
func (c *Coordinator) Part() []int { return append([]int(nil), c.part...) }

// Forward implements gnn.Aggregator over the node fleet. Failures panic with
// a typed error; gnn.Trainer's recovery turns that into an error return.
func (c *Coordinator) Forward(h *tensor.Matrix) *tensor.Matrix { return c.mustRound(h, false) }

// Backward implements gnn.Aggregator (the transposed flow runs node-side).
func (c *Coordinator) Backward(g *tensor.Matrix) *tensor.Matrix { return c.mustRound(g, true) }

func (c *Coordinator) mustRound(h *tensor.Matrix, backward bool) *tensor.Matrix {
	out, err := c.Round(h, backward)
	if err != nil {
		panic(err)
	}
	return out
}

// Round is AggregateInto into a fresh matrix.
func (c *Coordinator) Round(h *tensor.Matrix, backward bool) (*tensor.Matrix, error) {
	out := tensor.New(h.Rows, h.Cols)
	if err := c.AggregateInto(out, h, backward); err != nil {
		return nil, err
	}
	return out, nil
}

// AggregateInto scatters h's owned rows to every node, runs one lockstep
// aggregate round over the mesh, gathers the owned out rows into dst (which
// it overwrites: every row has one owner), and folds the per-node traffic
// deltas into the fabric and the processing counters into the epoch's — the
// allocation-free form gnn's models probe for.
// A mis-shaped h or dst is an error before any frame is written. An error
// from the round leaves dst unusable and is typed: ErrPeerDown for a vanished
// node, ErrRemote wrapping the node-side failure (itself a round timeout or
// peer-down symptom) otherwise.
func (c *Coordinator) AggregateInto(dst, h *tensor.Matrix, backward bool) error {
	if c.g == nil {
		return errors.New("net: coordinator round before setup")
	}
	if n := c.g.NumNodes(); h.Rows != n || dst.Rows != n || dst.Cols != h.Cols || h.Cols < 1 {
		return fmt.Errorf("net: round shapes h (%d,%d) out (%d,%d), want %d rows each and equal cols, at least one",
			h.Rows, h.Cols, dst.Rows, dst.Cols, n)
	}
	c.seq++
	seq, ordinal := c.seq, int32(0)
	if c.skipped {
		ordinal = int32(c.round)
	}
	c.round, c.skipped = c.round+1, false
	for i := range c.rounds {
		c.rounds[i] = Round{Seq: seq, Backward: backward, Cols: int32(h.Cols), H: h, Rows: c.own[i], Ordinal: ordinal}
	}
	c.dst = dst
	if err := c.fanOut(c.roundRuns); err != nil {
		return fmt.Errorf("net: round %d: %w", seq, err)
	}
	for i, done := range c.dones {
		for d := 0; d < c.nparts; d++ {
			if done.Bytes[d] != 0 || done.Msgs[d] != 0 {
				c.shard.Add(i, d, done.Bytes[d], done.Msgs[d])
			}
		}
		c.work.Add(done.Work)
	}
	c.fabric.Drain(c.shard)
	return nil
}

// roundOn runs rounds[i] on node i, its rows into dst, its reply into dones[i].
func (c *Coordinator) roundOn(i int) error {
	m, done := &c.rounds[i], &c.dones[i]
	resp, err := c.request(i, frameRound, m, frameRoundDone, 2*c.opts.RoundTimeout)
	if err != nil {
		return err
	}
	nout, err := decodeRoundDone(resp, done, c.dst, m.Rows)
	if err != nil {
		return fmt.Errorf("node %d: %w", i, err)
	}
	if done.Seq != m.Seq {
		return fmt.Errorf("node %d: %w: round-done seq %d, want %d", i, ErrProtocol, done.Seq, m.Seq)
	}
	if done.Err != "" {
		return fmt.Errorf("node %d: %w: %s", i, ErrRemote, done.Err)
	}
	if nout != len(m.Rows)*int(m.Cols) {
		return fmt.Errorf("node %d: %w: %d out values, want %d rows x %d cols",
			i, ErrProtocol, nout, len(m.Rows), m.Cols)
	}
	if len(done.Bytes) != c.nparts {
		return fmt.Errorf("node %d: %w: traffic row length %d, want %d",
			i, ErrProtocol, len(done.Bytes), c.nparts)
	}
	return nil
}

// Repartition swaps in a new partition vector on every node. All nodes must
// report the identical incremental dirty set — replicas disagreeing on
// structure is a protocol-level failure, not a tolerable drift.
func (c *Coordinator) Repartition(part []int) ([]int, error) {
	if c.g == nil {
		return nil, errors.New("net: repartition before setup")
	}
	if len(part) != len(c.part) {
		return nil, fmt.Errorf("net: partition length %d, want %d", len(part), len(c.part))
	}
	c.aggGen++
	c.seq++
	seq := c.seq
	m := Repart{Seq: seq, Part: toInt32s(part)}
	dirties := make([][]int32, c.nparts)
	err := c.broadcast(func(i int) error {
		resp, err := c.request(i, frameRepart, m, frameRepartDone, c.opts.RoundTimeout)
		if err != nil {
			return err
		}
		done, err := decodeRepartDone(resp)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if done.Err != "" {
			return fmt.Errorf("node %d: %w: %s", i, ErrRemote, done.Err)
		}
		dirties[i] = done.Dirty
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("net: repartition: %w", err)
	}
	for i := 1; i < c.nparts; i++ {
		if !slices.Equal(dirties[i], dirties[0]) {
			return nil, fmt.Errorf("net: %w: node %d dirty set %v, node 0 %v",
				ErrProtocol, i, dirties[i], dirties[0])
		}
	}
	c.part = append(c.part[:0], part...)
	c.rebuildOwn()
	dirty := toInts(dirties[0])
	slices.Sort(dirty)
	return dirty, nil
}

// CollectStates checkpoints every node: each returns its peer state as a
// CRC-validated container blob. The blobs belong in the coordinator's single
// checkpoint file alongside the model and trainer state.
func (c *Coordinator) CollectStates() ([][]byte, error) {
	c.seq++
	seq := c.seq
	blobs := make([][]byte, c.nparts)
	err := c.broadcast(func(i int) error {
		resp, err := c.request(i, frameState, State{Seq: seq}, frameState, c.opts.RoundTimeout)
		if err != nil {
			return err
		}
		st, err := decodeState(resp)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if st.Err != "" {
			return fmt.Errorf("node %d: %w: %s", i, ErrRemote, st.Err)
		}
		blobs[i] = st.Blob
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("net: collect states: %w", err)
	}
	return blobs, nil
}

// RestoreStates rewinds every node to the given checkpoint blobs (index =
// partition id). Restoring also clears node-side round poisoning. When
// variable-rate scheduling is on, the coordinator's own decision-side levels
// rewind too — recovered from node 0's blob, since every node's state carries
// the identical level vector — so post-restore Advance calls see the same
// prev levels an undisturbed run would.
func (c *Coordinator) RestoreStates(blobs [][]byte) error {
	if len(blobs) != c.nparts {
		return fmt.Errorf("net: %d state blobs for %d nodes", len(blobs), c.nparts)
	}
	c.aggGen++
	if c.sched != nil {
		st, err := decodePeerState(blobs[0])
		if err != nil {
			return fmt.Errorf("net: restore states: decode node 0 blob: %w", err)
		}
		if st.Levels == nil {
			return errors.New("net: restore states: checkpoint carries no schedule levels but scheduling is on")
		}
		if _, err := c.sched.SetLevels(toInts(st.Levels)); err != nil {
			return fmt.Errorf("net: restore states: %w", err)
		}
	}
	c.seq++
	seq := c.seq
	err := c.broadcast(func(i int) error {
		return c.requestAck(i, frameRestore, State{Seq: seq, Blob: blobs[i]}, c.opts.RoundTimeout)
	})
	if err != nil {
		return fmt.Errorf("net: restore states: %w", err)
	}
	return nil
}

// Shutdown asks every node to exit its serve loop, then closes the control
// connections. Unreachable nodes are skipped — shutdown is best-effort.
func (c *Coordinator) Shutdown() {
	c.broadcast(func(i int) error {
		c.requestAck(i, frameShutdown, nil, c.opts.RoundTimeout)
		return nil
	})
	c.Close()
}
