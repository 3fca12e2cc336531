package dist

import (
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/graph"
)

// The engine has no Repartition of its own: these tests repartition its
// cluster and go on driving the engine.

// movedPart returns part with every 7th node moved to the next partition —
// a deterministic perturbation that keeps all partitions occupied on the
// balanced node-cut partitions the tests use (asserted, not assumed).
func movedPart(t *testing.T, n int, part []int, nparts int) []int {
	t.Helper()
	next := append([]int(nil), part...)
	for u := 0; u < len(next); u += 7 {
		next[u] = (next[u] + 1) % nparts
	}
	if err := graph.ValidatePartition(n, next, nparts); err != nil {
		t.Fatalf("perturbation produced an invalid partition: %v", err)
	}
	return next
}

// TestEngineRepartitionMatchesFreshEngine: after Repartition, an engine with
// no cross-round compression state (vanilla, semantic, quantized, delayed)
// must be indistinguishable from a brand-new engine on the new partition —
// same aggregates to full float64 precision, same traffic snapshot. The
// stateful methods (sampling, adaptive, error feedback) carry per-pair
// streams across the repartition and are locked down against the worker
// cluster in internal/worker instead.
func TestEngineRepartitionMatchesFreshEngine(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	next := movedPart(t, d.NumNodes(), part, nparts)
	h := randMat(d.NumNodes(), 4, 21)
	g := randMat(d.NumNodes(), 4, 22)

	cfgs := map[string]Config{
		"vanilla":  Vanilla(),
		"semantic": Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: 5}}),
		"quant":    Quant(8),
		"delay":    Delay(3),
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			eng := NewEngine(d.Graph, part, nparts, cfg)
			eng.StartEpoch(0)
			eng.Forward(h)
			eng.Backward(g)
			dirty, err := eng.c.Repartition(next)
			if err != nil {
				t.Fatal(err)
			}
			if len(dirty) == 0 {
				t.Fatal("a real perturbation must dirty at least one pair")
			}
			fresh := NewEngine(d.Graph, next, nparts, cfg)
			for epoch := 1; epoch < 4; epoch++ {
				eng.StartEpoch(epoch)
				fresh.StartEpoch(epoch)
				gotF, wantF := eng.Forward(h), fresh.Forward(h)
				if !gotF.Equal(wantF, 0) {
					t.Fatalf("epoch %d: repartitioned forward != fresh engine", epoch)
				}
				gotB, wantB := eng.Backward(g), fresh.Backward(g)
				if !gotB.Equal(wantB, 0) {
					t.Fatalf("epoch %d: repartitioned backward != fresh engine", epoch)
				}
				if gs, ws := eng.CaptureEpoch(), fresh.CaptureEpoch(); gs != ws {
					t.Fatalf("epoch %d: traffic %+v vs fresh %+v", epoch, gs, ws)
				}
			}
		})
	}
}

// TestEngineRepartitionDelaySlots pins the invalidation granularity: a
// boundary-preserving repartition (empty dirty set) keeps the delay replays
// alive (stale epochs stay zero-byte), while a dirty repartition drops every
// slot (slots are whole-round aggregates over all pairs), forcing the next
// stale epoch to recompute and retransmit.
func TestEngineRepartitionDelaySlots(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	eng := NewEngine(d.Graph, part, nparts, Delay(4))
	h := randMat(d.NumNodes(), 4, 23)

	eng.StartEpoch(0) // transmit epoch fills the slots
	eng.Forward(h)
	fresh := eng.CaptureEpoch().TotalBytes
	if fresh == 0 {
		t.Fatal("epoch 0 must transmit")
	}

	// Clean repartition: same vector, no dirty pairs, replays preserved.
	dirty, err := eng.c.Repartition(append([]int(nil), part...))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Fatalf("identical partition dirtied %d pairs", len(dirty))
	}
	eng.StartEpoch(1)
	eng.Forward(h)
	if got := eng.CaptureEpoch().TotalBytes; got != 0 {
		t.Fatalf("replay lost after clean repartition: %d bytes", got)
	}

	// Dirty repartition: slots invalidated, the stale epoch recomputes.
	if dirty, err = eng.c.Repartition(movedPart(t, d.NumNodes(), part, nparts)); err != nil {
		t.Fatal(err)
	}
	if len(dirty) == 0 {
		t.Fatal("perturbed partition dirtied nothing")
	}
	eng.StartEpoch(2)
	eng.Forward(h)
	if got := eng.CaptureEpoch().TotalBytes; got == 0 {
		t.Fatal("stale slots replayed across a dirty repartition")
	}
}

// TestEngineRepartitionHostileInput: malformed partitions are rejected with
// an error and leave the engine fully operational and unchanged.
func TestEngineRepartitionHostileInput(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	eng := NewEngine(d.Graph, part, nparts, Semantic(core.PlanConfig{Grouping: core.GroupingConfig{K: 2, Seed: 5}}))
	h := randMat(d.NumNodes(), 4, 24)
	eng.StartEpoch(0)
	before := eng.Forward(h)

	n := d.NumNodes()
	outOfRange := append([]int(nil), part...)
	outOfRange[0] = nparts
	negative := append([]int(nil), part...)
	negative[1] = -1
	empty := make([]int, n) // partitions 1 and 2 empty
	cases := []struct {
		name string
		part []int
	}{
		{"short vector", part[:n-1]},
		{"long vector", append(append([]int(nil), part...), 0)},
		{"id out of range", outOfRange},
		{"negative id", negative},
		{"empty partition", empty},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := eng.c.Repartition(c.part); err == nil {
				t.Fatal("Repartition accepted a malformed partition")
			}
			eng.StartEpoch(0)
			if !eng.Forward(h).Equal(before, 0) {
				t.Fatal("failed Repartition changed the engine's aggregate")
			}
		})
	}
}

// TestEngineRepartitionCopiesPartition: the engine must not alias the
// caller's slice (the constructors' no-copy convention does not extend to
// Repartition, which documents a copy).
func TestEngineRepartitionCopiesPartition(t *testing.T) {
	d, part := smallSetup(t)
	const nparts = 3
	eng := NewEngine(d.Graph, part, nparts, Vanilla())
	next := movedPart(t, d.NumNodes(), part, nparts)
	if _, err := eng.c.Repartition(next); err != nil {
		t.Fatal(err)
	}
	h := randMat(d.NumNodes(), 4, 25)
	eng.StartEpoch(0)
	want := eng.Forward(h)
	for i := range next {
		next[i] = 0 // scribble over the caller's slice
	}
	eng.StartEpoch(0)
	if !eng.Forward(h).Equal(want, 0) {
		t.Fatal("engine aliased the caller's partition slice")
	}
}
