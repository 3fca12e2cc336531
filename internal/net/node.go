package net

import (
	"errors"
	"fmt"
	stdnet "net"
	"strings"
	"sync"
	"time"

	"scgnn/internal/graph"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// Typed transport failures. Every blocking path in the package carries a
// deadline, so a dead peer always surfaces as one of these — never a hang.
var (
	// ErrPeerDown marks a peer that stayed unreachable through the full
	// dial retry/backoff schedule (or whose connection is gone).
	ErrPeerDown = errors.New("net: peer unreachable")
	// ErrRoundTimeout marks a round that waited longer than RoundTimeout for
	// a peer's batch — the symptom of a node killed mid-round.
	ErrRoundTimeout = errors.New("net: round timed out")
	// ErrProtocol marks a peer that violated the frame protocol (wrong
	// sequence, wrong sender, unknown frame in a data stream).
	ErrProtocol = errors.New("net: protocol violation")
	// ErrRemote wraps a failure a node reported over the control channel.
	ErrRemote = errors.New("net: node reported failure")
)

// NodeOptions tunes a node's transport behavior. The zero value uses the
// defaults; tests shrink the timeouts and inject Dial to wrap connections in
// fault injectors.
type NodeOptions struct {
	// Dial opens a data-mesh connection to a peer (default stdlib dialer).
	Dial func(network, addr string) (stdnet.Conn, error)
	// DialRetries and DialBackoff shape the retry schedule when a peer is
	// not yet listening: DialRetries extra attempts, sleeping DialBackoff,
	// doubling up to a 500ms cap. Defaults: 10 retries, 20ms.
	DialRetries int
	DialBackoff time.Duration
	// RoundTimeout bounds every blocking step of a round and of mesh
	// assembly. Default 30s.
	RoundTimeout time.Duration
	// Logf receives progress lines (default: discarded).
	Logf func(format string, args ...any)
}

func (o NodeOptions) withDefaults() NodeOptions {
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

// networkFor guesses the stdlib network of an address: anything with a path
// separator is a unix socket, everything else TCP.
func networkFor(addr string) string {
	if strings.ContainsRune(addr, '/') {
		return "unix"
	}
	return "tcp"
}

// dialRetry dials with exponential backoff; exhaustion wraps ErrPeerDown.
func dialRetry(dial func(network, addr string) (stdnet.Conn, error), addr string, retries int, backoff time.Duration) (stdnet.Conn, error) {
	var err error
	for attempt := 0; ; attempt++ {
		var conn stdnet.Conn
		if conn, err = dial(networkFor(addr), addr); err == nil {
			return conn, nil
		}
		if attempt >= retries {
			break
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
	return nil, fmt.Errorf("%w: %s after %d attempts: %v", ErrPeerDown, addr, retries+1, err)
}

// qframe is one routed data-mesh frame (or the reader's terminal error).
type qframe struct {
	seq  uint64
	from int32
	data []byte
	err  error
}

// peerConn is one established data-mesh connection: a framed socket plus the
// reader goroutine that routes its batch frames into a queue the round loop
// drains. A queued batch owns its data, copied out of the read buffer. A
// round decodes the one batch it accepts per link before it returns, so the
// dequeue of the link's next batch hands the last one's buffer back (free).
type peerConn struct {
	fc    *framed
	queue chan qframe
	free  chan []byte
	lent  []byte // the data dequeued last, round loop only
}

func newPeerConn(fc *framed) *peerConn {
	pc := &peerConn{fc: fc, queue: make(chan qframe, 16), free: make(chan []byte, 1)}
	go func() {
		for {
			ft, payload, err := fc.read()
			if err != nil {
				pc.queue <- qframe{err: err}
				return
			}
			if ft != frameBatch {
				pc.queue <- qframe{err: fmt.Errorf("%w: frame type %d on data mesh", ErrProtocol, ft)}
				return
			}
			b, err := decodeBatch(payload)
			if err != nil {
				pc.queue <- qframe{err: err}
				return
			}
			var data []byte
			select {
			case data = <-pc.free:
			default:
			}
			pc.queue <- qframe{seq: b.Seq, from: b.From, data: append(data[:0], b.Data...)}
		}
	}()
	return pc
}

// lend notes data as out with the round loop and hands the previous batch's
// back to the reader (to the collector, if the reader has a spare).
func (pc *peerConn) lend(data []byte) {
	if pc.lent != nil {
		select {
		case pc.free <- pc.lent:
		default:
		}
	}
	pc.lent = data
}

// inConn is an accepted data-mesh connection waiting for mesh assembly.
type inConn struct {
	sender int32
	gen    uint32
	fc     *framed
}

// roundBufs are the retained shard matrices (len(Own()) rows) for one column
// width.
type roundBufs struct{ h, out *tensor.Matrix }

// Node is one partition's server process: it accepts a coordinator control
// connection and peer data connections, holds the worker.Peer once Setup
// arrives, and executes rounds against the data mesh. All coordinator
// requests are serialized (ctlMu), so the peer state has a single driver.
type Node struct {
	opts NodeOptions

	mu       sync.Mutex
	lis      stdnet.Listener
	conns    map[*framed]struct{} // every accepted/dialed conn, for Close
	closed   bool
	incoming chan inConn

	ctlMu  sync.Mutex
	peer   *worker.Peer
	nparts int
	me     int
	addrs  []string
	mesh   []*peerConn
	bufs   map[int]*roundBufs
	// Retained (under ctlMu) so that an epoch marker or a round allocates nothing.
	ack       Ack
	batch     Batch
	roundDone RoundDone
	timer     *time.Timer

	done chan struct{}
}

// NewNode builds an idle node; Serve runs it.
func NewNode(opts NodeOptions) *Node {
	return &Node{
		opts:     opts.withDefaults(),
		conns:    make(map[*framed]struct{}),
		incoming: make(chan inConn, 64),
		bufs:     make(map[int]*roundBufs),
		timer:    time.NewTimer(0),
		done:     make(chan struct{}),
	}
}

// track registers a conn for Close teardown; returns false if the node is
// already closed (the conn is closed on the spot).
func (n *Node) track(fc *framed) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		fc.conn.Close()
		return false
	}
	n.conns[fc] = struct{}{}
	return true
}

func (n *Node) untrack(fc *framed) {
	n.mu.Lock()
	delete(n.conns, fc)
	n.mu.Unlock()
}

// Close tears the node down: listener and every connection die, which makes
// Serve return and simulates a killed process in in-process tests.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	if n.lis != nil {
		n.lis.Close()
	}
	for fc := range n.conns {
		fc.conn.Close()
	}
	n.mu.Unlock()
	close(n.done)
}

// Serve accepts connections on lis until Close or a Shutdown control frame.
// The first frame on every connection is a Hello: the coordinator
// (Sender == CoordID) gets a control loop; a peer's connection is parked for
// mesh assembly at its generation.
func (n *Node) Serve(lis stdnet.Listener) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("net: node is closed")
	}
	n.lis = lis
	n.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-n.done:
				return nil
			default:
				return fmt.Errorf("net: accept: %w", err)
			}
		}
		fc := &framed{conn: conn}
		if !n.track(fc) {
			return nil
		}
		go n.handshake(fc)
	}
}

// handshake reads the Hello and routes the connection.
func (n *Node) handshake(fc *framed) {
	conn := fc.conn
	conn.SetReadDeadline(time.Now().Add(n.opts.RoundTimeout))
	ft, payload, err := fc.read()
	conn.SetReadDeadline(time.Time{})
	if err != nil || ft != frameHello {
		n.untrack(fc)
		conn.Close()
		return
	}
	hello, err := decodeHello(payload)
	if err != nil {
		n.untrack(fc)
		conn.Close()
		return
	}
	if hello.Sender == CoordID {
		n.serveControl(fc)
		return
	}
	select {
	case n.incoming <- inConn{sender: hello.Sender, gen: hello.Gen, fc: fc}:
	case <-n.done:
		n.untrack(fc)
		conn.Close()
	}
}

// serveControl answers coordinator requests until the connection drops or a
// Shutdown arrives. Requests are strictly request/response and serialized
// across connections.
func (n *Node) serveControl(fc *framed) {
	defer func() {
		n.untrack(fc)
		fc.conn.Close()
	}()
	for {
		ft, payload, err := fc.read()
		if err != nil {
			return
		}
		n.ctlMu.Lock()
		shutdown, err := n.handleControl(fc, ft, payload)
		n.ctlMu.Unlock()
		if err != nil {
			n.opts.Logf("node %d: control: %v", n.me, err)
			return
		}
		if shutdown {
			n.Close()
			return
		}
	}
}

// reply sends one response frame on the control connection.
func (n *Node) reply(fc *framed, ft frameType, m encoder) error {
	fc.conn.SetWriteDeadline(time.Now().Add(n.opts.RoundTimeout))
	defer fc.conn.SetWriteDeadline(time.Time{})
	return fc.write(ft, m)
}

// handleControl executes one coordinator request. The returned error is
// transport-level (tear the control conn down); request-level failures ride
// back inside the response instead.
func (n *Node) handleControl(fc *framed, ft frameType, payload []byte) (shutdown bool, err error) {
	switch ft {
	case frameSetup:
		m, err := decodeSetup(payload)
		if err != nil {
			return false, err
		}
		fc.release() // m holds copies; the payload was the job's edge list
		return false, n.reply(fc, frameAck, Ack{Err: errString(n.setup(m))})
	case frameEpoch:
		m, err := decodeEpoch(payload)
		if err != nil {
			return false, err
		}
		n.ack = Ack{Err: errString(n.startEpoch(m))}
		return false, n.reply(fc, frameAck, &n.ack)
	case frameRound:
		m, h, err := decodeRound(payload)
		if err != nil {
			return false, err
		}
		return false, n.reply(fc, frameRoundDone, n.runRound(m, h))
	case frameRepart:
		m, err := decodeRepart(payload)
		if err != nil {
			return false, err
		}
		resp := RepartDone{Seq: m.Seq}
		if n.peer == nil {
			resp.Err = "node has no setup"
		} else if dirty, rerr := n.peer.Repartition(toInts(m.Part)); rerr != nil {
			resp.Err = rerr.Error()
		} else {
			resp.Dirty = toInt32s(dirty)
		}
		return false, n.reply(fc, frameRepartDone, resp)
	case frameState:
		m, err := decodeState(payload)
		if err != nil {
			return false, err
		}
		resp := State{Seq: m.Seq}
		if n.peer == nil {
			resp.Err = "node has no setup"
		} else if st := n.peer.State(); delayValues(st) > maxDelayValues {
			resp.Err = fmt.Sprintf("delay slots hold %d values, over the %d a checkpoint can restore", delayValues(st), maxDelayValues)
		} else {
			resp.Blob = encodePeerState(st)
		}
		return false, n.reply(fc, frameState, resp)
	case frameRestore:
		m, err := decodeState(payload)
		if err != nil {
			return false, err
		}
		resp := Ack{Seq: m.Seq}
		if n.peer == nil {
			resp.Err = "node has no setup"
		} else if st, derr := decodePeerState(m.Blob); derr != nil {
			resp.Err = derr.Error()
		} else if rerr := n.peer.Restore(st); rerr != nil {
			resp.Err = rerr.Error()
		}
		return false, n.reply(fc, frameAck, resp)
	case frameSchedSig:
		m, err := decodeSchedSig(payload)
		if err != nil {
			return false, err
		}
		resp := SchedSig{Seq: m.Seq}
		if n.peer == nil {
			resp.Err = "node has no setup"
		} else if resp.Signals = n.peer.SchedSignals(); resp.Signals == nil {
			resp.Err = "scheduling is off"
		}
		return false, n.reply(fc, frameSchedSig, resp)
	case frameShutdown:
		n.reply(fc, frameAck, Ack{})
		return true, nil
	default:
		return false, fmt.Errorf("%w: control frame type %d", ErrProtocol, ft)
	}
}

// startEpoch marks the boundary on the peer, applying the epoch's schedule
// levels first. A scheduled peer needs a full level vector and an unscheduled
// one takes none: ApplySchedule refuses both mismatches and changes nothing.
func (n *Node) startEpoch(m Epoch) error {
	if n.peer == nil {
		return errors.New("node has no setup")
	}
	if len(m.Levels) > 0 || n.peer.ScheduleLevels() != nil {
		if err := n.peer.ApplySchedule(toInts(m.Levels)); err != nil {
			return err
		}
	}
	if m.Eval {
		n.peer.StartEvalEpoch(int(m.Epoch))
	} else {
		n.peer.StartEpoch(int(m.Epoch))
	}
	return nil
}

// setup rebuilds the peer from the Setup inputs and assembles the data mesh
// at the carried generation. The graph is rebuilt from the directed arc list
// (graph.New canonicalizes to the same sorted CSR the coordinator holds), so
// every structural derivation downstream is bit-identical across replicas.
func (n *Node) setup(m Setup) error {
	edges := make([]graph.Edge, len(m.EdgeU))
	for i := range m.EdgeU {
		edges[i] = graph.Edge{U: m.EdgeU[i], V: m.EdgeV[i]}
	}
	g := graph.New(int(m.Nodes), edges)
	peer, err := worker.NewPeer(g, toInts(m.Part), int(m.NParts), int(m.Me), m.Cfg)
	if err != nil {
		return err
	}
	n.peer = peer
	n.nparts = int(m.NParts)
	n.me = int(m.Me)
	n.addrs = m.Addrs
	n.bufs = make(map[int]*roundBufs)
	return n.buildMesh(m.Gen)
}

// buildMesh builds the data mesh at generation gen: existing connections are
// torn down, lower-numbered peers are dialed, higher-numbered peers are
// awaited from the accept loop. Arrivals of another generation are closed;
// the whole assembly is bounded by RoundTimeout.
func (n *Node) buildMesh(gen uint32) error {
	n.teardownMesh()
	n.mesh = make([]*peerConn, n.nparts)
	deadline := time.Now().Add(n.opts.RoundTimeout)

	// Dial every lower-numbered peer (they accept from higher ids).
	type dialRes struct {
		peer int
		fc   *framed
		err  error
	}
	ch := make(chan dialRes, n.me)
	for j := 0; j < n.me; j++ {
		go func(j int) {
			var fc *framed
			conn, err := dialRetry(n.opts.Dial, n.addrs[j], n.opts.DialRetries, n.opts.DialBackoff)
			if err == nil {
				fc = &framed{conn: conn}
				if err = fc.write(frameHello, Hello{Sender: int32(n.me), Gen: gen}); err != nil {
					conn.Close()
				}
			}
			ch <- dialRes{peer: j, fc: fc, err: err}
		}(j)
	}
	var firstErr error
	for j := 0; j < n.me; j++ {
		res := <-ch
		if res.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("net: node %d: mesh dial %d: %w", n.me, res.peer, res.err)
			}
			continue
		}
		if !n.track(res.fc) {
			return errors.New("net: node is closed")
		}
		n.mesh[res.peer] = newPeerConn(res.fc)
	}
	if firstErr != nil {
		n.teardownMesh()
		return firstErr
	}

	// Await every higher-numbered peer's dial at this generation.
	for need := n.nparts - 1 - n.me; need > 0; {
		wait := time.Until(deadline)
		if wait <= 0 {
			n.teardownMesh()
			return fmt.Errorf("net: node %d: mesh assembly: %w", n.me, ErrRoundTimeout)
		}
		select {
		case in := <-n.incoming:
			if in.gen != gen || int(in.sender) <= n.me || int(in.sender) >= n.nparts ||
				n.mesh[in.sender] != nil {
				n.untrack(in.fc)
				in.fc.conn.Close() // stale generation or bogus sender
				continue
			}
			n.mesh[in.sender] = newPeerConn(in.fc)
			need--
		case <-time.After(wait):
		case <-n.done:
			return errors.New("net: node is closed")
		}
	}
	n.opts.Logf("node %d: mesh up at gen %d", n.me, gen)
	return nil
}

// teardownMesh closes every data connection; readers drain out via errors.
func (n *Node) teardownMesh() {
	for _, pc := range n.mesh {
		if pc != nil {
			n.untrack(pc.fc)
			pc.fc.conn.Close()
		}
	}
	n.mesh = nil
}

// runRound executes one aggregate round (h: the scattered rows, still encoded)
// and reports, in n.roundDone, the owned out rows plus the peer's tally, which
// it clears. A round failure rides back in RoundDone.Err (the peer stays
// poisoned until restored).
func (n *Node) runRound(m Round, h []byte) *RoundDone {
	resp := &n.roundDone
	*resp = RoundDone{Seq: m.Seq, Tally: simnet.Tally{Bytes: resp.Bytes[:0], Msgs: resp.Msgs[:0]}}
	if n.peer == nil {
		resp.Err = "node has no setup"
		return resp
	}
	own := n.peer.Own()
	cols := int(m.Cols)
	if len(h) != 8*len(own)*cols {
		resp.Err = fmt.Sprintf("round %d: %d h values, want %d own rows x %d cols",
			m.Seq, len(h)/8, len(own), cols)
		return resp
	}
	bufs := n.bufs[cols]
	if bufs == nil || bufs.h.Rows != len(own) {
		bufs = &roundBufs{h: tensor.New(len(own), cols), out: tensor.New(len(own), cols)}
		n.bufs[cols] = bufs
	}
	loadRows(h, bufs.h, nil)
	if m.Ordinal > 0 {
		if err := n.peer.AlignRound(int(m.Ordinal)); err != nil {
			resp.Err = err.Error()
			return resp
		}
	}

	// Reset, never drained: a tick left from before comes ahead of the deadline.
	deadline := time.Now().Add(n.opts.RoundTimeout)
	n.timer.Reset(n.opts.RoundTimeout)
	send := func(peer int, frame []byte) error {
		pc := n.mesh[peer]
		if pc == nil {
			return fmt.Errorf("%w: no mesh connection to %d", ErrPeerDown, peer)
		}
		pc.fc.conn.SetWriteDeadline(deadline)
		defer pc.fc.conn.SetWriteDeadline(time.Time{})
		n.batch = Batch{Seq: m.Seq, From: int32(n.me), Data: frame}
		return pc.fc.write(frameBatch, &n.batch)
	}
	next := 0
	recv := func() (int, []byte, error) {
		for {
			if next == n.me {
				next++
			}
			if next >= n.nparts {
				return 0, nil, fmt.Errorf("%w: round %d over-received", ErrProtocol, m.Seq)
			}
			pc := n.mesh[next]
			if pc == nil {
				return 0, nil, fmt.Errorf("%w: no mesh connection to %d", ErrPeerDown, next)
			}
			select {
			case qf := <-pc.queue:
				if qf.err != nil {
					return 0, nil, fmt.Errorf("from peer %d: %w", next, qf.err)
				}
				pc.lend(qf.data)
				if qf.seq < m.Seq {
					continue // stale duplicate from a previous round: drop
				}
				if qf.seq != m.Seq || int(qf.from) != next {
					return 0, nil, fmt.Errorf("%w: batch seq %d from %d, want seq %d from %d",
						ErrProtocol, qf.seq, qf.from, m.Seq, next)
				}
				next++
				return int(qf.from), qf.data, nil
			case <-n.timer.C:
				if time.Now().Before(deadline) {
					continue
				}
				return 0, nil, fmt.Errorf("waiting for peer %d batch: %w", next, ErrRoundTimeout)
			case <-n.done:
				return 0, nil, errors.New("net: node is closed")
			}
		}
	}
	if err := n.peer.Round(bufs.h, bufs.out, m.Backward, send, recv); err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Out = bufs.out
	t := n.peer.Tally()
	resp.Bytes, resp.Msgs, resp.Work = append(resp.Bytes, t.Bytes...), append(resp.Msgs, t.Msgs...), t.Work
	t.Clear()
	return resp
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func toInts(v []int32) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

func toInt32s(v []int) []int32 {
	out := make([]int32, len(v))
	for i, x := range v {
		out[i] = int32(x)
	}
	return out
}
