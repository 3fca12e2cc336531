package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestPolicyDefaults(t *testing.T) {
	p := Policy{Enabled: true}.WithDefaults()
	if p.EpochsPerLevel != 2 || p.Stagger != 1 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	// Explicit values survive.
	q := Policy{EpochsPerLevel: 5, Stagger: 3}.WithDefaults()
	if q.EpochsPerLevel != 5 || q.Stagger != 3 {
		t.Fatalf("defaults clobbered explicit policy: %+v", q)
	}
	// Negative stagger is the explicit "no stagger" choice (every pair
	// transitions together); WithDefaults must be idempotent on it.
	z := (Policy{Stagger: -1}).WithDefaults()
	if z.Stagger >= 0 {
		t.Fatalf("stagger -1 normalized to %d, want negative passthrough", z.Stagger)
	}
	if zz := z.WithDefaults(); zz != z {
		t.Fatalf("WithDefaults not idempotent: %+v vs %+v", zz, z)
	}
	if off := stagger(1, 5, z.Stagger); off != 0 {
		t.Fatalf("negative width stagger offset %d, want 0", off)
	}
}

func TestLadderShape(t *testing.T) {
	base := Setting{SampleRate: 0.25, QuantBits: 8, Adaptive: true}
	l := Ladder(base)
	if len(l) != 5 {
		t.Fatalf("ladder has %d rungs, want 5", len(l))
	}
	if !l[len(l)-1].Equal(base) {
		t.Fatalf("final rung %+v is not the base %+v", l[len(l)-1], base)
	}
	for i, s := range l[:len(l)-1] {
		// Mid-rungs must never compose adaptive widths with error feedback:
		// EF residuals are runtime-dependent floats, and adaptive widths
		// chosen from them could diverge across runtimes.
		if s.Adaptive {
			t.Fatalf("rung %d uses adaptive quantization: %+v", i, s)
		}
		if s.QuantBits <= 0 {
			t.Fatalf("rung %d does not quantize: %+v", i, s)
		}
	}
	if l[0].SampleRate <= 0 || l[0].SampleRate >= l[1].SampleRate || l[1].SampleRate >= 1 {
		t.Fatalf("rungs 0/1 do not sample in ascending rate: %+v, %+v", l[0], l[1])
	}
}

// TestLadderNoAdaptiveBelowTop is the premise that lets Decide ignore
// adaptive widths: over every base setting — widths 0–16, with and without
// adaptive width, error feedback and sampling — no rung below the top
// quantizes at an adaptive width, so only the base rung, which no signal can
// move past, ever adapts.
func TestLadderNoAdaptiveBelowTop(t *testing.T) {
	for bits := 0; bits <= 16; bits++ {
		for _, rate := range []float64{0, 0.3} {
			for _, adaptive := range []bool{false, true} {
				for _, ef := range []bool{false, true} {
					base := Setting{SampleRate: rate, QuantBits: bits, Adaptive: adaptive, EF: ef}
					l := Ladder(base)
					for i, s := range l[:len(l)-1] {
						if s.Adaptive {
							t.Fatalf("base %+v: rung %d of %d quantizes adaptively: %+v", base, i, len(l)-1, s)
						}
					}
				}
			}
		}
	}
}

// TestLadderClampsToBaseWidth: a rung must never cost more than the base it
// anneals toward, so every rung's quantizer clamps to the base's own width
// when the base quantizes more tightly.
func TestLadderClampsToBaseWidth(t *testing.T) {
	base := Setting{QuantBits: 4, EF: true}
	for i, s := range Ladder(base) {
		if s.QuantBits > base.QuantBits {
			t.Fatalf("rung %d quantizer %d bits wider than the %d-bit base", i, s.QuantBits, base.QuantBits)
		}
	}
	// A non-quantizing base leaves the rung widths untouched.
	wide := Ladder(Setting{})
	if wide[2].QuantBits != 4 || wide[3].QuantBits != 8 {
		t.Fatalf("unquantized base narrowed the rungs: %+v", wide)
	}
}

func TestStaggerBounds(t *testing.T) {
	for _, width := range []int{0, 1, 3, 7} {
		seen := make(map[int]bool)
		for idx := 0; idx < 256; idx++ {
			off := stagger(42, idx, width)
			if off < 0 || off > width {
				t.Fatalf("stagger(42,%d,%d) = %d out of [0,%d]", idx, width, off, width)
			}
			seen[off] = true
		}
		if width > 0 && len(seen) < 2 {
			t.Fatalf("width %d: all 256 pairs share one offset", width)
		}
	}
}

// TestDecideFloorConvergence pins the signal-free schedule exactly: the
// floor alone must carry every pair to the final rung by epoch
// Stagger + EpochsPerLevel·maxLevel, one rung per EpochsPerLevel epochs.
func TestDecideFloorConvergence(t *testing.T) {
	const npairs, maxLevel = 12, 3
	p := Policy{EpochsPerLevel: 2, Stagger: 1}
	levels := make([]int, npairs)
	sigs := make([]Signals, npairs)
	for epoch := 0; epoch <= p.Stagger+p.EpochsPerLevel*maxLevel; epoch++ {
		levels = Decide(p, epoch, 7, levels, sigs, maxLevel)
		for i, lv := range levels {
			off := stagger(7, i, p.Stagger)
			want := 0
			if epoch > off {
				want = (epoch - off) / p.EpochsPerLevel
			}
			if want > maxLevel {
				want = maxLevel
			}
			if lv != want {
				t.Fatalf("epoch %d pair %d: level %d, want floor %d", epoch, i, lv, want)
			}
		}
	}
	for i, lv := range levels {
		if lv != maxLevel {
			t.Fatalf("pair %d ended at %d, want %d", i, lv, maxLevel)
		}
	}
}

func TestDecideAccelTriggers(t *testing.T) {
	p := Policy{EpochsPerLevel: 100, Stagger: 0}
	prev := []int{0, 0, 0, 0, 0}
	sigs := []Signals{
		{},                                     // no signals: stays put
		{EFUnits: 2, EFCorrected: 128},         // 64 corrections/unit: +1
		{EFUnits: 1, EFCorrected: 640},         // far over: still +1
		{EFUnits: 2, EFCorrected: 127},         // just under
		{Draws: 9, BitsSum: 80, BitsCalls: 10}, // unread counters
	}
	got := Decide(p, 1, 1, prev, sigs, 3)
	want := []int{0, 1, 1, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accel levels %v, want %v", got, want)
	}
	// maxLevel clamps acceleration.
	got = Decide(p, 1, 1, []int{3, 3, 3, 3, 3}, sigs, 3)
	if !reflect.DeepEqual(got, []int{3, 3, 3, 3, 3}) {
		t.Fatalf("clamped levels %v, want all 3", got)
	}
	// Zero EFUnits never fire even with a nonzero correction count.
	got = Decide(p, 1, 1, []int{0}, []Signals{{EFCorrected: 100}}, 3)
	if got[0] != 0 {
		t.Fatalf("denominator-free signals advanced a pair to %d", got[0])
	}
}

// TestDecideMonotone is the annealing property: under any signal sequence
// (monotone counters — they only accumulate), rates never re-tighten once
// relaxed, i.e. levels are non-decreasing epoch over epoch.
func TestDecideMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		p := Policy{
			EpochsPerLevel: 1 + rng.Intn(4),
			Stagger:        rng.Intn(4),
		}
		npairs := 1 + rng.Intn(16)
		maxLevel := 1 + rng.Intn(4)
		seed := rng.Int63()
		levels := make([]int, npairs)
		sigs := make([]Signals, npairs)
		for epoch := 0; epoch < 12; epoch++ {
			for i := range sigs {
				sigs[i].EFUnits = rng.Int63n(8)
				sigs[i].EFCorrected += rng.Int63n(512)
			}
			next := Decide(p, epoch, seed, levels, sigs, maxLevel)
			for i := range next {
				if next[i] < levels[i] {
					t.Fatalf("trial %d epoch %d pair %d: level %d re-tightened to %d",
						trial, epoch, i, levels[i], next[i])
				}
				if next[i] > maxLevel {
					t.Fatalf("trial %d epoch %d pair %d: level %d past max %d",
						trial, epoch, i, next[i], maxLevel)
				}
			}
			levels = next
		}
	}
}

// TestDecideReplay is determinism under signal-snapshot replay: recording
// the snapshots of one schedule run and replaying them into a fresh
// scheduler reproduces the levels exactly, and Decide leaves its inputs
// untouched.
func TestDecideReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const npairs, epochs = 9, 10
	p := Policy{Enabled: true}
	s := New(p, Setting{QuantBits: 8}, 123, npairs)

	var snaps [][]Signals
	var trace [][]int
	sigs := make([]Signals, npairs)
	for epoch := 0; epoch < epochs; epoch++ {
		for i := range sigs {
			sigs[i].EFUnits += rng.Int63n(3)
			sigs[i].EFCorrected += rng.Int63n(200)
		}
		snap := append([]Signals(nil), sigs...)
		snaps = append(snaps, snap)

		before := append([]Signals(nil), snap...)
		prevLevels := s.Levels()
		s.Advance(epoch, snap)
		if !reflect.DeepEqual(snap, before) {
			t.Fatalf("epoch %d: Advance mutated its signal snapshot", epoch)
		}
		if _, err := New(p, Setting{}, 123, npairs).SetLevels(prevLevels); err != nil {
			t.Fatalf("levels round-trip: %v", err)
		}
		trace = append(trace, s.Levels())
	}

	replay := New(p, Setting{QuantBits: 8}, 123, npairs)
	for epoch, snap := range snaps {
		replay.Advance(epoch, snap)
		if !reflect.DeepEqual(replay.Levels(), trace[epoch]) {
			t.Fatalf("epoch %d: replay levels %v, recorded %v", epoch, replay.Levels(), trace[epoch])
		}
	}
}

func TestSchedulerAdvanceChanged(t *testing.T) {
	s := New(Policy{EpochsPerLevel: 1, Stagger: -1}, Setting{}, 5, 4)
	changed := s.Advance(0, make([]Signals, 4))
	if len(changed) != 0 {
		t.Fatalf("epoch 0 changed %v, want none", changed)
	}
	changed = s.Advance(1, make([]Signals, 4))
	if !reflect.DeepEqual(changed, []int{0, 1, 2, 3}) {
		t.Fatalf("epoch 1 changed %v, want all pairs", changed)
	}
	if !sort.IntsAreSorted(changed) {
		t.Fatalf("changed set %v not ascending", changed)
	}
	if lv := s.Levels(); !reflect.DeepEqual(lv, []int{1, 1, 1, 1}) {
		t.Fatalf("levels %v after epoch 1", lv)
	}
	if got := s.Setting(0); !got.Equal(s.Ladder()[1]) {
		t.Fatalf("Setting(0) = %+v, want rung 1 %+v", got, s.Ladder()[1])
	}
	if s.MaxLevel() != 4 {
		t.Fatalf("MaxLevel %d, want 4", s.MaxLevel())
	}
}

func TestSetLevels(t *testing.T) {
	s := New(Policy{}, Setting{}, 1, 3)
	changed, err := s.SetLevels([]int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(changed, []int{1, 2}) {
		t.Fatalf("changed %v, want [1 2]", changed)
	}
	if !reflect.DeepEqual(s.Levels(), []int{0, 2, 3}) {
		t.Fatalf("levels %v", s.Levels())
	}
	if _, err := s.SetLevels([]int{0, 0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := s.SetLevels([]int{0, 0, 5}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if _, err := s.SetLevels([]int{-1, 0, 0}); err == nil {
		t.Fatal("negative level accepted")
	}
	// Failed SetLevels must not partially apply.
	if !reflect.DeepEqual(s.Levels(), []int{0, 2, 3}) {
		t.Fatalf("levels %v mutated by rejected SetLevels", s.Levels())
	}
}

func TestDecideMismatchedSignalsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched signal count did not panic")
		}
	}()
	Decide(Policy{}, 0, 0, make([]int, 3), make([]Signals, 2), 3)
}

func TestSignalsMerge(t *testing.T) {
	a := Signals{EFUnits: 4, EFCorrected: 5}
	b := Signals{EFUnits: 40, EFCorrected: 50}
	m := a.Merge(b)
	want := Signals{EFUnits: 44, EFCorrected: 55}
	if m != want {
		t.Fatalf("merge %+v, want %+v", m, want)
	}
}

// TestMergeNodeSignals pins the fleet-merge semantics: every counter is an
// encoder's, held by the node that encodes the direction (zeros elsewhere),
// so the merge is a plain sum across nodes.
func TestMergeNodeSignals(t *testing.T) {
	const nparts = 2
	node0 := []Signals{
		{EFUnits: 6, EFCorrected: 1},
		{EFUnits: 4, EFCorrected: 8},
		{},
		{EFUnits: 4, EFCorrected: 1},
	}
	node1 := []Signals{
		{},
		{EFUnits: 1, EFCorrected: 2},
		{EFUnits: 16, EFCorrected: 2},
		{EFUnits: 3, EFCorrected: 9},
	}
	got := MergeNodeSignals(nparts, [][]Signals{node0, node1})
	want := []Signals{
		{EFUnits: 6, EFCorrected: 1},
		{EFUnits: 5, EFCorrected: 10},
		{EFUnits: 16, EFCorrected: 2},
		{EFUnits: 7, EFCorrected: 10},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d merged %+v, want %+v", i, got[i], want[i])
		}
	}

	for _, bad := range [][][]Signals{
		{node0},            // wrong node count
		{node0, node1[:3]}, // wrong pair count
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("malformed snapshot set did not panic")
				}
			}()
			MergeNodeSignals(nparts, bad)
		}()
	}
}

// BenchmarkSchedDecide measures the epoch-boundary decision cost at a
// 16-partition fleet (240 ordered pairs) — the number the Makefile's sched
// bench lane records so it stays ≪ the replan cost it can trigger.
func BenchmarkSchedDecide(b *testing.B) {
	const nparts = 16
	npairs := nparts * nparts
	p := Policy{Enabled: true}.WithDefaults()
	levels := make([]int, npairs)
	sigs := make([]Signals, npairs)
	rng := rand.New(rand.NewSource(1))
	for i := range sigs {
		sigs[i] = Signals{
			EFUnits: rng.Int63n(1 << 10), EFCorrected: rng.Int63n(1 << 16),
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := Decide(p, i%32, 42, levels, sigs, 3)
		_ = out
	}
}
