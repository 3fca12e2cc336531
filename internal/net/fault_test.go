package net

import (
	"errors"
	"fmt"
	stdnet "net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"scgnn/internal/core"
	"scgnn/internal/dist"
	"scgnn/internal/tensor"
)

// ---------------------------------------------------------------------------
// Fault injector. framed.write's contract is a single Write call per frame, so
// wrapping Conn.Write faults whole frames — the protocol's atomic unit. A
// faultPlan is shared by every connection one node dials; it counts frames
// across them and arms the fault after a configured number pass untouched.
// ---------------------------------------------------------------------------

type faultMode int

const (
	faultNone     faultMode = iota
	faultDrop               // swallow the frame, report success
	faultTruncate           // write half the frame, then tear the connection
	faultDelay              // sleep before writing (reordering pressure)
	faultDup                // write the frame twice
)

type faultPlan struct {
	mu      sync.Mutex
	mode    faultMode
	after   int // frames across all wrapped conns to pass untouched first
	oneShot bool
	fired   bool
	delay   time.Duration
	n       int
}

func (p *faultPlan) decide() faultMode {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	if p.n <= p.after {
		return faultNone
	}
	if p.oneShot {
		if p.fired {
			return faultNone
		}
		p.fired = true
	}
	return p.mode
}

// dialer wraps the stdlib dialer so every outgoing data-mesh connection of
// the node it is installed on runs through the plan.
func (p *faultPlan) dialer() func(network, addr string) (stdnet.Conn, error) {
	return func(network, addr string) (stdnet.Conn, error) {
		conn, err := stdnet.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return &faultConn{Conn: conn, plan: p}, nil
	}
}

type faultConn struct {
	stdnet.Conn
	plan *faultPlan
}

func (f *faultConn) Write(b []byte) (int, error) {
	switch f.plan.decide() {
	case faultDrop:
		return len(b), nil
	case faultTruncate:
		if len(b) > 1 {
			f.Conn.Write(b[:len(b)/2])
		}
		f.Conn.Close()
		return len(b), nil
	case faultDelay:
		time.Sleep(f.plan.delay)
	case faultDup:
		n, err := f.Conn.Write(b)
		if err == nil {
			f.Conn.Write(b)
		}
		return n, err
	}
	return f.Conn.Write(b)
}

// faultOpts shrinks the timeouts further than quickOpts: fault scenarios
// deliberately stall a round, and the stall's duration is the timeout.
func faultNodeOpts() NodeOptions {
	return NodeOptions{RoundTimeout: 2 * time.Second, DialRetries: 20, DialBackoff: 5 * time.Millisecond}
}

func faultCoordOpts() CoordOptions {
	return CoordOptions{RoundTimeout: 2 * time.Second, DialRetries: 20, DialBackoff: 5 * time.Millisecond}
}

// startClusterWith is startCluster with per-node options, so a fault plan
// can be installed on one node's dialer before its Serve loop starts (the
// transport reads options concurrently; they must not change afterwards).
func startClusterWith(t *testing.T, nparts int, optsFor func(p int) NodeOptions, coordOpts CoordOptions) *testCluster {
	t.Helper()
	tc := &testCluster{dir: shortTempDir(t)}
	for p := 0; p < nparts; p++ {
		addr := filepath.Join(tc.dir, fmt.Sprintf("n%d.sock", p))
		tc.addrs = append(tc.addrs, addr)
		tc.nodes = append(tc.nodes, startNode(t, addr, optsFor(p)))
	}
	tc.coord = NewCoordinator(tc.addrs, coordOpts)
	if err := tc.coord.Connect(); err != nil {
		t.Fatalf("coordinator connect: %v", err)
	}
	t.Cleanup(tc.coord.Close)
	return tc
}

// epochOut is one epoch's pair of aggregate results.
type epochOut struct {
	fwd, bwd *tensor.Matrix
}

// runEpoch drives one epoch (marker + forward round + backward round).
// StartEpoch panics on a broadcast failure (it has no error return, matching
// the gnn.EpochMarker shape); recover it into an error like gnn.Trainer does.
func runEpoch(tc *testCluster, epoch int, h, g *tensor.Matrix) (eo epochOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("epoch %d panicked: %v", epoch, r)
			}
		}
	}()
	tc.coord.StartEpoch(epoch)
	fwd, err := tc.coord.Round(h, false)
	if err != nil {
		return epochOut{}, err
	}
	bwd, err := tc.coord.Round(g, true)
	if err != nil {
		return epochOut{}, err
	}
	return epochOut{fwd: fwd, bwd: bwd}, nil
}

// referenceRun executes epochs 0..epochs-1 on a clean cluster and returns
// the per-epoch aggregates as the bit-exact oracle for the faulted runs.
func referenceRun(t *testing.T, nparts, epochs int, cfg dist.Config, h, g *tensor.Matrix, repartAt int, part2 []int) []epochOut {
	t.Helper()
	d, part, _ := testGraph(t, nparts)
	tc := startCluster(t, nparts, faultNodeOpts(), faultCoordOpts())
	if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatalf("reference setup: %v", err)
	}
	var out []epochOut
	for epoch := 0; epoch < epochs; epoch++ {
		if epoch == repartAt && part2 != nil {
			if _, err := tc.coord.Repartition(part2); err != nil {
				t.Fatalf("reference repartition: %v", err)
			}
		}
		eo, err := runEpoch(tc, epoch, h, g)
		if err != nil {
			t.Fatalf("reference epoch %d: %v", epoch, err)
		}
		out = append(out, eo)
	}
	tc.coord.Shutdown()
	return out
}

func isTypedNetErr(err error) bool {
	return errors.Is(err, ErrRemote) || errors.Is(err, ErrRoundTimeout) ||
		errors.Is(err, ErrPeerDown) || errors.Is(err, ErrProtocol)
}

// TestFaultInjection is the fault matrix on frame boundaries. Node 2's
// outgoing mesh connections run through a faultPlan; each scenario must end
// in either full transparency (delay, duplicate — the stale-sequence drop
// rule absorbs them) or a typed error followed by bit-correct recovery via
// Remesh + RestoreStates (drop, truncate). The epoch outputs of every run
// must match a clean reference bit for bit. Nothing may hang: every wait in
// the transport is deadline-bounded, and the test itself would time out.
func TestFaultInjection(t *testing.T) {
	const (
		nparts = 3
		epochs = 4
		// Node 2 dials two peers: 2 Hello frames, then one batch per conn
		// per round, 2 rounds per epoch = 4 batch frames per epoch.
		helloFrames = 2
		perEpoch    = 4
	)
	cfg := dist.Config{QuantBits: 8, ErrorFeedback: true, Seed: 7}
	d, part, _ := testGraph(t, nparts)
	h := randMat(d.NumNodes(), 4, 31)
	g := randMat(d.NumNodes(), 4, 32)
	want := referenceRun(t, nparts, epochs, cfg, h, g, -1, nil)

	cases := []struct {
		name     string
		plan     *faultPlan
		wantFail bool // epoch 2 must fail with a typed error, then recover
	}{
		// Drop one batch of epoch 2: the receiver times out, the round dies.
		{"drop", &faultPlan{mode: faultDrop, after: helloFrames + 2*perEpoch, oneShot: true}, true},
		// Tear the connection mid-frame in epoch 2: the reader sees a torn
		// frame / dead conn on both ends.
		{"truncate", &faultPlan{mode: faultTruncate, after: helloFrames + 2*perEpoch, oneShot: true}, true},
		// Delay every batch: reordering pressure, but still within the round
		// deadline — must be fully transparent.
		{"delay", &faultPlan{mode: faultDelay, after: helloFrames, delay: 20 * time.Millisecond}, false},
		// Duplicate every batch: the stale-seq drop rule must absorb the
		// extra copies silently.
		{"duplicate", &faultPlan{mode: faultDup, after: helloFrames}, false},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			// Node 2 dials nodes 0 and 1 during mesh assembly, so installing
			// the plan there puts both of its outgoing conns under fault.
			tc := startClusterWith(t, nparts, func(p int) NodeOptions {
				opts := faultNodeOpts()
				if p == 2 {
					opts.Dial = tt.plan.dialer()
				}
				return opts
			}, faultCoordOpts())
			if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
				t.Fatalf("setup: %v", err)
			}
			failed := false
			for epoch := 0; epoch < epochs; epoch++ {
				blobs, err := tc.coord.CollectStates()
				if err != nil {
					t.Fatalf("epoch %d: collect states: %v", epoch, err)
				}
				eo, err := runEpoch(tc, epoch, h, g)
				if err != nil {
					failed = true
					if !isTypedNetErr(err) {
						t.Fatalf("epoch %d failed with untyped error: %v", epoch, err)
					}
					// Recover: rebuild the data mesh at a new generation,
					// rewind every node to the epoch boundary, redo the epoch.
					if err := tc.coord.Remesh(); err != nil {
						t.Fatalf("epoch %d: remesh: %v", epoch, err)
					}
					if err := tc.coord.RestoreStates(blobs); err != nil {
						t.Fatalf("epoch %d: restore: %v", epoch, err)
					}
					if eo, err = runEpoch(tc, epoch, h, g); err != nil {
						t.Fatalf("epoch %d retry after recovery: %v", epoch, err)
					}
				}
				if !eo.fwd.Equal(want[epoch].fwd, 0) || !eo.bwd.Equal(want[epoch].bwd, 0) {
					t.Fatalf("epoch %d: aggregates diverged from clean reference", epoch)
				}
			}
			if failed != tt.wantFail {
				t.Fatalf("failed=%v, want %v", failed, tt.wantFail)
			}
			tc.coord.Shutdown()
		})
	}
}

// TestKillRespawnRecover is the in-process rehearsal of the headline
// scenario: a node is killed mid-training (Close drops its listener and
// every connection, exactly what a dead process looks like to its peers),
// the round fails with a typed error, the node is respawned on the same
// address, and the fleet recovers via RecoverNode + RestoreStates. Training
// then continues through a Repartition that reassigns most of the dead
// node's shard to the survivors — and every epoch aggregate matches a clean
// run that never died, bit for bit. The forward round is 4 wide and the
// backward 3, as an epoch whose last layer multiplies first ships them, on
// an error-feedback lane and a delay lane (whose replayed slots must come
// back at their own widths).
func TestKillRespawnRecover(t *testing.T) {
	for name, cfg := range map[string]dist.Config{
		"quant8+ef": {QuantBits: 8, ErrorFeedback: true, Seed: 13},
		"delay2":    {DelayPeriod: 2, Seed: 13},
	} {
		t.Run(name, func(t *testing.T) { killRespawnRecover(t, cfg) })
	}
}

func killRespawnRecover(t *testing.T, cfg dist.Config) {
	const (
		nparts   = 3
		epochs   = 5
		killAt   = 2
		repartAt = 3
		dead     = 1
	)
	d, part, _ := testGraph(t, nparts)
	h := randMat(d.NumNodes(), 4, 41)
	g := randMat(d.NumNodes(), 3, 42)
	part2 := recoveryPartition(part, dead, nparts)
	want := referenceRun(t, nparts, epochs, cfg, h, g, repartAt, part2)

	tc := startCluster(t, nparts, faultNodeOpts(), faultCoordOpts())
	if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatalf("setup: %v", err)
	}
	var blobs [][]byte
	for epoch := 0; epoch < epochs; epoch++ {
		var err error
		if blobs, err = tc.coord.CollectStates(); err != nil {
			t.Fatalf("epoch %d: collect states: %v", epoch, err)
		}
		if epoch == repartAt {
			if _, err := tc.coord.Repartition(part2); err != nil {
				t.Fatalf("repartition: %v", err)
			}
			// The boundary snapshot predates the repartition; retake it so a
			// later failure would rewind to the post-repartition state.
			if blobs, err = tc.coord.CollectStates(); err != nil {
				t.Fatalf("epoch %d: collect states: %v", epoch, err)
			}
		}
		if epoch == killAt {
			tc.nodes[dead].Close() // simulated kill -9: listener and conns drop
			if _, err := runEpoch(tc, epoch, h, g); err == nil {
				t.Fatal("round against a dead node succeeded")
			} else if !isTypedNetErr(err) {
				t.Fatalf("dead node surfaced untyped error: %v", err)
			}
			// Checkpoint collection against the dead node must also fail
			// typed, not hang.
			if _, err := tc.coord.CollectStates(); err == nil {
				t.Fatal("CollectStates with a dead node succeeded")
			} else if !isTypedNetErr(err) {
				t.Fatalf("CollectStates surfaced untyped error: %v", err)
			}
			tc.respawnNode(t, dead, faultNodeOpts())
			if err := tc.coord.RecoverNode(dead); err != nil {
				t.Fatalf("recover node: %v", err)
			}
			if err := tc.coord.RestoreStates(blobs); err != nil {
				t.Fatalf("restore states: %v", err)
			}
		}
		eo, err := runEpoch(tc, epoch, h, g)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if !eo.fwd.Equal(want[epoch].fwd, 0) || !eo.bwd.Equal(want[epoch].bwd, 0) {
			t.Fatalf("epoch %d: aggregates diverged from undisturbed reference", epoch)
		}
	}
	tc.coord.Shutdown()
}

// recoveryPartition reassigns most of shard dead to the survivors while
// keeping the shard non-empty (ValidatePartition rejects empty partitions):
// every 5th of the dead node's rows stays, the rest round-robin across the
// survivors. This is the incremental-repartition move the recovery playbook
// uses to shrink a flaky node's load.
func recoveryPartition(part []int, dead, nparts int) []int {
	out := append([]int(nil), part...)
	k := 0
	for u := range out {
		if out[u] != dead {
			continue
		}
		if k%5 != 0 {
			s := k % (nparts - 1)
			if s >= dead {
				s++
			}
			out[u] = s
		}
		k++
	}
	return out
}

// TestDeadNodeStaysTyped locks in the "never a hang" guarantee when a peer
// stays dead: every coordinator operation against it fails with ErrPeerDown
// through the full retry schedule, including a RecoverNode attempt when
// nothing was respawned on the address.
func TestDeadNodeStaysTyped(t *testing.T) {
	const nparts = 3
	cfg := dist.Config{Seed: 3}
	d, part, _ := testGraph(t, nparts)
	h := randMat(d.NumNodes(), 4, 51)

	opts := faultCoordOpts()
	opts.DialRetries = 2 // keep the exhaustion path fast
	tc := startCluster(t, nparts, faultNodeOpts(), opts)
	if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatal(err)
	}
	tc.nodes[0].Close()

	if _, err := runEpoch(tc, 0, h, h); !isTypedNetErr(err) {
		t.Fatalf("round: got %v, want typed transport error", err)
	}
	if _, err := tc.coord.CollectStates(); !isTypedNetErr(err) {
		t.Fatalf("collect: got %v, want typed transport error", err)
	}
	// Nobody listening on the address at all: RecoverNode must exhaust the
	// dial schedule and report ErrPeerDown.
	if err := tc.coord.RecoverNode(0); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("recover: got %v, want ErrPeerDown", err)
	}
}

// TestSetupBadQuantBits: a Setup whose QuantBits is no width (17..31) is
// answered with an error ack, not a node panic, and the node still takes a
// good Setup afterwards.
func TestSetupBadQuantBits(t *testing.T) {
	const nparts = 2
	d, part, _ := testGraph(t, nparts)
	tc := startCluster(t, nparts, faultNodeOpts(), faultCoordOpts())
	if err := tc.coord.Setup(d.Graph, part, dist.Config{QuantBits: 20}); !errors.Is(err, ErrRemote) {
		t.Fatalf("QuantBits 20 setup: got %v, want ErrRemote", err)
	}
	if err := tc.coord.Setup(d.Graph, part, dist.Config{QuantBits: 8}); err != nil {
		t.Fatalf("good setup after a rejected one: %v", err)
	}
	tc.coord.Shutdown()
}

// otherSimilarity is a grouping similarity the Setup frame has no byte for.
type otherSimilarity struct{ core.SemanticSimilarity }

func (otherSimilarity) Name() string { return "other" }

// TestSetupRefusesUnnamedSimilarity: a similarity the Setup frame cannot name
// is an error before anything is sent — never a fleet quietly planning with
// another measure than the cluster — and the nodes still take a good Setup.
func TestSetupRefusesUnnamedSimilarity(t *testing.T) {
	const nparts = 2
	d, part, _ := testGraph(t, nparts)
	tc := startCluster(t, nparts, faultNodeOpts(), faultCoordOpts())
	cfg := dist.Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Sim: otherSimilarity{}}}}
	if err := tc.coord.Setup(d.Graph, part, cfg); err == nil || !strings.Contains(err.Error(), `"other"`) {
		t.Fatalf("setup with an unnamed similarity: got %v", err)
	}
	cfg.Plan.Grouping.Sim = core.JaccardSimilarity{}
	if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatalf("good setup after a refused one: %v", err)
	}
	tc.coord.Shutdown()
}

// TestCorruptStateBlob ensures a damaged checkpoint blob is rejected by the
// node with a typed ErrRemote (the peer-state envelope CRC catches it) instead
// of poisoning the peer silently.
func TestCorruptStateBlob(t *testing.T) {
	const nparts = 3
	cfg := dist.Config{QuantBits: 8, ErrorFeedback: true, Seed: 5}
	d, part, _ := testGraph(t, nparts)

	tc := startCluster(t, nparts, faultNodeOpts(), faultCoordOpts())
	if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatal(err)
	}
	blobs, err := tc.coord.CollectStates()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of node 1's blob: CRC mismatch.
	bad := make([][]byte, len(blobs))
	for i := range blobs {
		bad[i] = append([]byte(nil), blobs[i]...)
	}
	bad[1][len(bad[1])/2] ^= 0x40
	if err := tc.coord.RestoreStates(bad); !errors.Is(err, ErrRemote) {
		t.Fatalf("corrupt blob restore: got %v, want ErrRemote", err)
	}
	// Truncated blob: same story.
	bad[1] = blobs[1][:len(blobs[1])/2]
	if err := tc.coord.RestoreStates(bad); !errors.Is(err, ErrRemote) {
		t.Fatalf("truncated blob restore: got %v, want ErrRemote", err)
	}
	// The pristine blobs still restore cleanly afterwards.
	if err := tc.coord.RestoreStates(blobs); err != nil {
		t.Fatalf("clean restore after rejects: %v", err)
	}
	tc.coord.Shutdown()
}
