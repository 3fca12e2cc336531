package main

import (
	"fmt"
	stdnet "net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"scgnn/internal/net"
)

// byteCount totals the bytes a set of connections carried, both directions.
type byteCount struct{ n atomic.Int64 }

func (b *byteCount) total() int64 { return b.n.Load() }

// countingConn adds every byte read or written to a shared counter. The
// embedded Conn keeps deadlines and Close untouched.
type countingConn struct {
	stdnet.Conn
	count *byteCount
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.count.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.count.n.Add(int64(n))
	return n, err
}

// countingDial wraps the stdlib dialer. A mesh pair shares one connection,
// dialed by the higher-numbered node, and the coordinator dials every
// control connection, so counting reads and writes on the dialing side sees
// every byte of both directions exactly once.
func countingDial(count *byteCount) func(network, addr string) (stdnet.Conn, error) {
	return func(network, addr string) (stdnet.Conn, error) {
		conn, err := stdnet.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, count: count}, nil
	}
}

// Framing the counters see on top of the payloads the fabric accounts: one
// Batch frame per ordered pair per round (u32 length, type byte, u64 seq,
// i32 sender, u32 data length) and one Hello per mesh connection (u32
// length, type byte, i32 sender, u32 generation).
const (
	meshFrameOverhead = 4 + 1 + 8 + 4 + 4
	meshHelloBytes    = 4 + 1 + 4 + 4
)

// fleet is net's test-harness arrangement: one net.Node per partition, each
// serving on its own unix socket inside this process, and a connected
// coordinator. One process keeps the load generator within nproc; the bytes
// still cross real sockets.
type fleet struct {
	dir    string
	nodes  []*net.Node
	served sync.WaitGroup
	coord  *net.Coordinator
	// hub counts the coordinator's control connections (Round{H} out,
	// RoundDone{Out} back, barriers, checkpoints); mesh counts the
	// node-to-node data connections.
	hub, mesh byteCount
}

// startFleet listens on n sockets under dir, serves a node on each and
// connects a coordinator. dir must be short: a unix socket path holds about
// a hundred bytes.
func startFleet(dir string, n int) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	addrs := make([]string, n)
	for p := range addrs {
		addrs[p] = filepath.Join(dir, fmt.Sprintf("n%d.sock", p))
		lis, err := stdnet.Listen("unix", addrs[p])
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("fleet: listen node %d: %w", p, err)
		}
		node := net.NewNode(net.NodeOptions{Dial: countingDial(&f.mesh), RoundTimeout: time.Minute})
		f.nodes = append(f.nodes, node)
		f.served.Add(1)
		go func() {
			defer f.served.Done()
			// Serve returns nil after Close; an accept error ends this node
			// and surfaces as a typed failure on the coordinator's next call.
			_ = node.Serve(lis)
			lis.Close()
		}()
	}
	f.coord = net.NewCoordinator(addrs, net.CoordOptions{Dial: countingDial(&f.hub), RoundTimeout: time.Minute})
	if err := f.coord.Connect(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop closes the coordinator and every node, waits for the serve loops and
// removes the socket directory.
func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.Close()
	}
	for _, node := range f.nodes {
		node.Close()
	}
	f.served.Wait()
	os.RemoveAll(f.dir)
}
