package simnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventSimEmptyFabric(t *testing.T) {
	es := NewEventSim(DefaultCostModel())
	if got := es.CommTime(NewFabric(3)); got != 0 {
		t.Fatalf("empty fabric time = %v", got)
	}
}

func TestEventSimSingleTransfer(t *testing.T) {
	c := CostModel{LatencyPerMsg: 1, Bandwidth: 100}
	es := NewEventSim(c)
	f := NewFabric(2)
	send(f, 0, 1, 200) // 200 bytes, 1 msg → 1 + 2 = 3s
	if got := es.CommTime(f); math.Abs(got-3) > 1e-12 {
		t.Fatalf("single transfer = %v, want 3", got)
	}
	if es.LowerBound(f) != es.CommTime(f) || es.SerialBound(f) != es.CommTime(f) {
		t.Fatal("single transfer: all bounds must coincide")
	}
}

func TestEventSimParallelLinks(t *testing.T) {
	// Disjoint pairs run fully in parallel: makespan = single-link time.
	c := CostModel{LatencyPerMsg: 0, Bandwidth: 100}
	es := NewEventSim(c)
	f := NewFabric(4)
	send(f, 0, 1, 1000) // 1000 B → 10s
	send(f, 2, 3, 1000) // disjoint endpoints
	if got := es.CommTime(f); math.Abs(got-10) > 1e-9 {
		t.Fatalf("disjoint transfers = %v, want 10 (parallel)", got)
	}
}

func TestEventSimSharedReceiver(t *testing.T) {
	// Two senders into one receiver serialize at the receiver NIC.
	c := CostModel{LatencyPerMsg: 0, Bandwidth: 100}
	es := NewEventSim(c)
	f := NewFabric(3)
	send(f, 0, 2, 1000)
	send(f, 1, 2, 1000)
	if got := es.CommTime(f); math.Abs(got-20) > 1e-9 {
		t.Fatalf("shared receiver = %v, want 20 (serialized)", got)
	}
}

// Property: lower bound ≤ event-sim makespan ≤ serial sum, for arbitrary
// traffic matrices.
func TestEventSimEnvelopeProperty(t *testing.T) {
	es := NewEventSim(DefaultCostModel())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np := 2 + rng.Intn(6)
		fab := NewFabric(np)
		for k := 0; k < rng.Intn(60); k++ {
			s, t := rng.Intn(np), rng.Intn(np)
			if s == t {
				continue
			}
			send(fab, s, t, rng.Intn(1<<16))
		}
		ms := es.CommTime(fab)
		lo, hi := es.LowerBound(fab), es.SerialBound(fab)
		return ms >= lo-1e-12 && ms <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestEventSimChain: worker 1 both receives (0→1) and sends (1→2); with a
// full-duplex NIC the two transfers overlap completely.
func TestEventSimChain(t *testing.T) {
	c := CostModel{LatencyPerMsg: 0, Bandwidth: 100}
	es := NewEventSim(c)
	f := NewFabric(3)
	send(f, 0, 1, 1000) // 10s
	send(f, 1, 2, 1000) // 10s — worker 1's send channel is free during its receive
	got := es.CommTime(f)
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("chain = %v, want 10 (full duplex)", got)
	}
	if lb := es.LowerBound(f); math.Abs(lb-10) > 1e-9 {
		t.Fatalf("lower bound = %v, want 10", lb)
	}
}
