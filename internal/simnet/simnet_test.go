package simnet

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// send records one message of the given wire bytes on src→dst the way the
// runtimes do: on the sender's tally, folded into the fabric.
func send(f *Fabric, src, dst, bytes int) {
	t := NewTally(f.NumParts())
	t.Send(dst, int64(bytes), 1)
	f.Fold(src, &t)
}

func TestSendAccounting(t *testing.T) {
	f := NewFabric(3)
	send(f, 0, 1, 100)
	send(f, 0, 1, 50)
	send(f, 2, 1, 10)
	if got := f.LinkBytes(0, 1); got != 150 {
		t.Fatalf("LinkBytes(0,1) = %d", got)
	}
	if got := f.LinkMessages(0, 1); got != 2 {
		t.Fatalf("LinkMessages(0,1) = %d", got)
	}
	if got := f.TotalBytes(); got != 160 {
		t.Fatalf("TotalBytes = %d", got)
	}
	if got := f.TotalMessages(); got != 3 {
		t.Fatalf("TotalMessages = %d", got)
	}
}

func TestSelfSendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	send(NewFabric(2), 1, 1, 10)
}

func TestReset(t *testing.T) {
	f := NewFabric(2)
	send(f, 0, 1, 10)
	f.Reset()
	if f.TotalBytes() != 0 || f.TotalMessages() != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestMaxInbound(t *testing.T) {
	f := NewFabric(3)
	send(f, 0, 2, 100)
	send(f, 1, 2, 100)
	send(f, 0, 1, 50)
	mb, mm := f.MaxInbound()
	if mb != 200 {
		t.Fatalf("MaxInboundBytes = %d", mb)
	}
	if mm != 2 {
		t.Fatalf("MaxInboundMessages = %d", mm)
	}
}

func TestCaptureSnapshot(t *testing.T) {
	f := NewFabric(2)
	send(f, 0, 1, 100)
	s := f.Capture()
	if s.TotalBytes != 100 || s.TotalMessages != 1 || s.MaxInboundBytes != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if !strings.Contains(s.String(), "bytes=100") {
		t.Fatalf("String = %q", s.String())
	}
	// The workers' processing counters ride their tallies into the snapshot.
	for src, cache := range []int64{3, 4} {
		tl := NewTally(2)
		tl.CacheValues = cache
		f.Fold(src, &tl)
	}
	if s := f.Capture(); s.CacheValues != 7 || s.TotalBytes != 100 {
		t.Fatalf("snapshot after folding work = %+v", s)
	}
}

func TestEpochTimeComponents(t *testing.T) {
	c := CostModel{
		LatencyPerMsg: 1, Bandwidth: 100, FlopTime: 0.5,
		QuantPerValue: 2, SamplePerEdge: 3, CachePerValue: 4, FusePerValue: 5,
	}
	s := Snapshot{
		MaxInboundBytes: 200, MaxInboundMessages: 3,
		MaxOutboundBytes: 100, MaxOutboundMessages: 1,
		Work: Work{ComputeFlops: 10, QuantValues: 1, SampleEdges: 1, CacheValues: 1, SemanticValues: 1},
	}
	// comm = max(3*1 + 200/100, 1*1 + 100/100) = 5; compute = 5;
	// overhead = 2+3+4+5 = 14.
	if got := c.EpochTime(s); got != 24 {
		t.Fatalf("EpochTime = %v, want 24", got)
	}
	// When the send side dominates, it becomes the bottleneck.
	s.MaxOutboundBytes, s.MaxOutboundMessages = 1000, 10
	// comm = max(5, 10+10) = 20 → total 39.
	if got := c.EpochTime(s); got != 39 {
		t.Fatalf("send-bound EpochTime = %v, want 39", got)
	}
}

func TestMaxOutbound(t *testing.T) {
	f := NewFabric(3)
	send(f, 0, 1, 100)
	send(f, 0, 2, 100)
	send(f, 1, 2, 50)
	ob, om := f.MaxOutbound()
	if ob != 200 || om != 2 {
		t.Fatalf("MaxOutbound = %d/%d", ob, om)
	}
}

func TestDefaultCostModelOrdering(t *testing.T) {
	c := DefaultCostModel()
	// Shipping 1 MB must cost more than shipping 1 KB.
	big := Snapshot{MaxInboundBytes: 1 << 20, MaxInboundMessages: 10}
	small := Snapshot{MaxInboundBytes: 1 << 10, MaxInboundMessages: 10}
	if c.EpochTime(big) <= c.EpochTime(small) {
		t.Fatal("cost model not monotone in bytes")
	}
	// Cache churn must be the most expensive per-value overhead
	// (the delay method's memory wall).
	if !(c.CachePerValue > c.QuantPerValue && c.QuantPerValue > c.FusePerValue) {
		t.Fatal("per-value overhead ordering violated")
	}
}

// Property: total bytes always equals the sum over links, and MaxInbound is
// bounded by the total.
func TestFabricInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np := 2 + rng.Intn(6)
		fab := NewFabric(np)
		for k := 0; k < rng.Intn(200); k++ {
			s := rng.Intn(np)
			t := rng.Intn(np)
			if s == t {
				continue
			}
			send(fab, s, t, rng.Intn(1000))
		}
		var sum int64
		for s := 0; s < np; s++ {
			for t := 0; t < np; t++ {
				sum += fab.LinkBytes(s, t)
			}
		}
		if sum != fab.TotalBytes() {
			return false
		}
		mb, mm := fab.MaxInbound()
		return mb <= fab.TotalBytes() && mm <= fab.TotalMessages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFabricProfiles(t *testing.T) {
	profiles := Profiles()
	if len(profiles) != 3 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	s := Snapshot{MaxInboundBytes: 10 << 20, MaxInboundMessages: 1000}
	nv := profiles["nvlink"].EpochTime(s)
	pc := profiles["pcie"].EpochTime(s)
	eth := profiles["ethernet"].EpochTime(s)
	if !(nv < pc && pc < eth) {
		t.Fatalf("profile ordering wrong: nvlink %v, pcie %v, ethernet %v", nv, pc, eth)
	}
	// Ethernet must be at least 5x slower than PCIe on a bandwidth-bound load.
	if eth < 5*pc {
		t.Fatalf("ethernet/pcie ratio only %v", eth/pc)
	}
}

// TestTallyFoldMatchesDirectSends is the accounting half of the
// deterministic-parallelism contract: recording traffic and work on
// per-sender tallies and folding them after the barrier, in any order, must
// reproduce the exact per-link counters and work of folding every message as
// it is sent.
func TestTallyFoldMatchesDirectSends(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nparts := 2 + rng.Intn(5)
		direct := NewFabric(nparts)
		tallied := NewFabric(nparts)
		tallies := make([]Tally, nparts)
		for i := range tallies {
			tallies[i] = NewTally(nparts)
		}
		for k := 0; k < 50; k++ {
			src := rng.Intn(nparts)
			dst := rng.Intn(nparts)
			if src == dst {
				continue
			}
			bytes := rng.Intn(4096)
			send(direct, src, dst, bytes)
			work := NewTally(nparts)
			work.QuantValues = int64(bytes)
			direct.Fold(src, &work)
			// The sender's goroutine records the send on its own tally.
			tallies[src].Send(dst, int64(bytes), 1)
			tallies[src].QuantValues += int64(bytes)
		}
		for _, i := range rng.Perm(nparts) {
			tallied.Fold(i, &tallies[i])
		}
		if direct.Capture() != tallied.Capture() {
			return false
		}
		for s := 0; s < nparts; s++ {
			for d := 0; d < nparts; d++ {
				if direct.LinkBytes(s, d) != tallied.LinkBytes(s, d) ||
					direct.LinkMessages(s, d) != tallied.LinkMessages(s, d) {
					return false
				}
			}
		}
		// Fold emptied the tallies: a second one adds nothing.
		for i := range tallies {
			tallied.Fold(i, &tallies[i])
		}
		return direct.Capture() == tallied.Capture()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTallySendPreFramed(t *testing.T) {
	tl := NewTally(2)
	// Send records bytes as-is: the caller measured the framed buffers, so
	// nothing is added per message.
	tl.Send(1, 100, 3)
	f := NewFabric(2)
	send(f, 0, 1, 100)
	f.Fold(0, &tl)
	if got := f.TotalBytes(); got != 200 {
		t.Fatalf("merged bytes = %d, want 200", got)
	}
	if f.TotalMessages() != 4 {
		t.Fatalf("messages = %d, want 4", f.TotalMessages())
	}
}

func TestFabricPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"self-fold":     func() { tl := NewTally(2); tl.Send(0, 10, 1); NewFabric(2).Fold(0, &tl) },
		"fold-mismatch": func() { tl := NewTally(2); NewFabric(3).Fold(0, &tl) },
		"zero-parts":    func() { NewTally(0) },
		"zero-fabric":   func() { NewFabric(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
