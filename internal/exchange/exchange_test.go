package exchange

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"scgnn/internal/compress"
	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
	"scgnn/internal/sched"
	"scgnn/internal/wire"
)

const nparts = 3

func setup(t *testing.T) (*graph.Graph, []int) {
	t.Helper()
	d := datasets.Generate(datasets.Spec{
		Name: "x", Nodes: 150, AvgDegree: 10, Classes: 3, FeatureDim: 5, Seed: 1,
	})
	return d.Graph, partition.Partition(d.Graph, nparts, partition.NodeCut, partition.Config{Seed: 2})
}

func semantic() Config {
	return Config{Semantic: true, Plan: core.PlanConfig{Grouping: core.GroupingConfig{Seed: 3}}, Seed: 7}
}

// withBase returns cfg with its per-pair gates set from a scheduler setting
// (the inverse of Config.BaseSetting).
func withBase(cfg Config, b sched.Setting) Config {
	cfg.SampleRate = b.SampleRate
	cfg.QuantBits, cfg.AdaptiveQuant, cfg.ErrorFeedback = b.QuantBits, b.Adaptive, b.EF
	return cfg
}

func nonNil(plans []*core.PairPlan) []*core.PairPlan {
	var out []*core.PairPlan
	for _, p := range plans {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// starUnits returns the unsampled star units of senders sending arcs[sender]
// arcs each: one per sender, ascending.
func starUnits(arcs map[int32]int32) []Unit {
	senders := make([]int32, 0, len(arcs))
	for u := range arcs {
		senders = append(senders, u)
	}
	slices.Sort(senders)
	out := make([]Unit, len(senders))
	for i, u := range senders {
		out[i] = Unit{Group: -1, Sender: u, Receiver: -1, Terms: arcs[u]}
	}
	return out
}

// collect runs one Walk at round ordinal round of epoch epoch and returns the
// surviving units.
func collect(c *Core, idx int, backward bool, epoch, round int) []Unit {
	var out []Unit
	c.Walk(idx, backward, epoch, round, func(u Unit) { out = append(out, u) })
	return out
}

// feed walks pair idx at (epoch 0, round) and runs every surviving unit's
// residual through the pair's error-feedback store, as an encode would.
func feed(c *Core, idx int, backward bool, round int) {
	ef := c.Pairs[idx].EF
	c.Walk(idx, backward, 0, round, func(u Unit) {
		if ef != nil {
			k := compress.RoundUnitKey(round, u.Index)
			ef.PreCompress(k, []float64{1, 2})
			ef.PostCompress(k, []float64{1, 2}, []float64{0.5, float64(idx)})
		}
	})
}

// TestWalkOrderContract: without sampling every candidate survives, in the
// contract order — groups by index then O2O in plan order (semantic), halo
// stars by sending node (baseline: one per source forward, one per sink
// backward, each standing for its arcs) — with consecutive indices, unit scale
// 1, and sender/receiver swapped on backward walks.
func TestWalkOrderContract(t *testing.T) {
	g, part := setup(t)
	for _, o := range []Config{{}, semantic()} {
		c := New(g, part, nparts, o)
		if c.Semantic() != o.Semantic {
			t.Fatalf("Semantic() = %v", c.Semantic())
		}
		units := 0
		for idx := range c.Pairs {
			fwd, bwd := collect(c, idx, false, 0, 0), collect(c, idx, true, 0, 0)
			var wantF, wantB []Unit
			if o.Semantic {
				if plan := c.PairPlans[idx]; plan != nil {
					for gi := range plan.Groups {
						wantF = append(wantF, Unit{Group: int32(gi)})
					}
					wantB = slices.Clone(wantF)
					for _, e := range plan.O2O {
						wantF = append(wantF, Unit{Group: -1, Sender: e.Src, Receiver: e.Dst, Terms: 1})
						wantB = append(wantB, Unit{Group: -1, Sender: e.Dst, Receiver: e.Src, Terms: 1})
					}
					if len(c.Groups(idx, false)) != len(plan.Groups) || len(c.Groups(idx, true)) != len(plan.Groups) {
						t.Fatalf("pair %d: Groups disagrees with the plan", idx)
					}
				} else if c.Groups(idx, false) != nil || c.Groups(idx, true) != nil {
					t.Fatalf("pair %d: groups without a plan", idx)
				}
			} else {
				srcArcs, dstArcs := make(map[int32]int32), make(map[int32]int32)
				for _, e := range arcsOf(c, idx) {
					srcArcs[e.U]++
					dstArcs[e.V]++
				}
				wantF, wantB = starUnits(srcArcs), starUnits(dstArcs)
			}
			for _, dir := range []struct {
				backward  bool
				got, want []Unit
			}{{false, fwd, wantF}, {true, bwd, wantB}} {
				if len(dir.got) != len(dir.want) || c.Candidates(idx, dir.backward) != len(dir.want) {
					t.Fatalf("pair %d backward=%v: %d units, %d candidates, want %d",
						idx, dir.backward, len(dir.got), c.Candidates(idx, dir.backward), len(dir.want))
				}
				for i, w := range dir.want {
					w.Index, w.Scale = int64(i), 1
					if w.Group >= 0 {
						// A group unit's node fields are not meaningful.
						dir.got[i].Sender, dir.got[i].Receiver = 0, 0
					}
					if dir.got[i] != w {
						t.Fatalf("pair %d backward=%v unit %d: %+v, want %+v", idx, dir.backward, i, dir.got[i], w)
					}
				}
			}
			units += len(wantF) + len(wantB)
		}
		if units == 0 {
			t.Fatal("no units walked")
		}
	}
}

// TestWalkCoinsAreDeterministic: a walk drops some candidates, and survivors
// carry scale 1/rate and the candidate's index, with a star's Terms its arc
// count. What survives is a function of (pair, epoch, round) alone: a fresh
// core that walks the positions in reverse order yields the same units at
// each, while the survivors move from round to round and from epoch to epoch.
// A sender's per-node units of one round share one decision.
func TestWalkCoinsAreDeterministic(t *testing.T) {
	g, part := setup(t)
	type pos struct{ epoch, round int }
	var order []pos
	for epoch := 0; epoch < 2; epoch++ {
		for round := 0; round < 3; round++ {
			order = append(order, pos{epoch, round})
		}
	}
	for _, o := range []Config{{}, semantic()} {
		o.SampleRate, o.Seed = 0.5, 11
		name := fmt.Sprintf("semantic=%v", o.Semantic)
		enc := New(g, part, nparts, o)
		full := New(g, part, nparts, Config{Semantic: o.Semantic, Plan: o.Plan})
		walked := map[pos][][]Unit{}
		for _, p := range order {
			backward := p.round%2 == 1
			for idx := range enc.Pairs {
				all := collect(full, idx, backward, p.epoch, p.round)
				kept := collect(enc, idx, backward, p.epoch, p.round)
				walked[p] = append(walked[p], kept)
				if len(all) > 8 && (terms(kept) == 0 || terms(kept) == terms(all)) {
					t.Fatalf("%s pair %d: kept %d of %d terms at rate 0.5", name, idx, terms(kept), terms(all))
				}
				survived := make([]bool, len(all))
				for _, u := range kept {
					w := all[u.Index]
					w.Scale = 2
					if u != w {
						t.Fatalf("%s pair %d: kept %+v, candidate %+v", name, idx, u, w)
					}
					survived[u.Index] = true
				}
				decision := map[int32]bool{}
				for i, w := range all {
					if d, seen := decision[w.Sender]; w.Group < 0 && seen && d != survived[i] {
						t.Fatalf("%s pair %d: sender %d kept and dropped in one round", name, idx, w.Sender)
					}
					decision[w.Sender] = survived[i]
				}
			}
		}
		again := New(g, part, nparts, o)
		for k := len(order) - 1; k >= 0; k-- {
			p := order[k]
			for idx := range again.Pairs {
				if got := collect(again, idx, p.round%2 == 1, p.epoch, p.round); !reflect.DeepEqual(got, walked[p][idx]) {
					t.Fatalf("%s pair %d at %+v: walked out of order, %d survivors, want %d", name, idx, p, len(got), len(walked[p][idx]))
				}
			}
		}
		if reflect.DeepEqual(walked[pos{0, 0}], walked[pos{0, 2}]) || reflect.DeepEqual(walked[pos{0, 0}], walked[pos{1, 0}]) {
			t.Fatalf("%s: another round or epoch kept the same units", name)
		}
	}
}

// allArcs lists every pair's bucketed cross arcs.
func allArcs(c *Core) [][]graph.Edge {
	out := make([][]graph.Edge, len(c.Pairs))
	for idx := range out {
		out[idx] = arcsOf(c, idx)
	}
	return out
}

// arcsOf lists pair idx's bucketed cross arcs, in bucket order.
func arcsOf(c *Core, idx int) []graph.Edge {
	srcs, dsts := c.buckets.Pair(idx)
	arcs := make([]graph.Edge, len(srcs))
	for p := range srcs {
		arcs[p] = graph.Edge{U: srcs[p], V: dsts[p]}
	}
	return arcs
}

// TestStarsTransposeArcs: a baseline pair's forward stars are its arcs'
// source runs and its backward stars its arcs sorted by (sink, source) — each
// arc in exactly one star of each direction, between the star's sender and
// one of its receivers — and senders ascend.
func TestStarsTransposeArcs(t *testing.T) {
	g, part := setup(t)
	c := New(g, part, nparts, Config{})
	stars := 0
	for idx := range c.Pairs {
		arcs := arcsOf(c, idx)
		for _, backward := range []bool{false, true} {
			st := c.Stars(idx, backward)
			var got []graph.Edge
			for k, sender := range st.Sender {
				if k > 0 && st.Sender[k-1] >= sender {
					t.Fatalf("pair %d backward=%v: star senders not ascending at %d", idx, backward, k)
				}
				for _, r := range st.Recv[st.Off[k]:st.Off[k+1]] {
					e := graph.Edge{U: sender, V: r}
					if backward {
						e = graph.Edge{U: r, V: sender}
					}
					got = append(got, e)
				}
			}
			want := slices.Clone(arcs)
			if backward {
				slices.SortFunc(want, func(a, b graph.Edge) int {
					if a.V != b.V {
						return int(a.V - b.V)
					}
					return int(a.U - b.U)
				})
			}
			if !slices.Equal(got, want) {
				t.Fatalf("pair %d backward=%v: stars hold %v, want %v", idx, backward, got, want)
			}
			stars += len(st.Sender)
		}
	}
	if stars == 0 {
		t.Fatal("no stars built")
	}
}

// terms sums the units' delivered terms, a group counting one.
func terms(units []Unit) int {
	n := 0
	for _, u := range units {
		n += max(int(u.Terms), 1)
	}
	return n
}

// TestReseedGates: each gate of the setting creates exactly its stream, a
// stateless setting creates none, the diagonal stays empty, and a width the
// quantizers cannot represent panics.
func TestReseedGates(t *testing.T) {
	g, part := setup(t)
	for _, tc := range []struct {
		name                  string
		base                  sched.Setting
		sampler, adaptive, ef bool
		bits                  int
	}{
		{name: "vanilla"},
		{name: "rate 1 and bits 32 are off", base: sched.Setting{SampleRate: 1, QuantBits: 32, Adaptive: true, EF: true}},
		{name: "sampling", base: sched.Setting{SampleRate: 0.3}, sampler: true},
		{name: "quant", base: sched.Setting{QuantBits: 8}, bits: 8},
		{name: "aquant+ef", base: sched.Setting{QuantBits: 6, Adaptive: true, EF: true}, adaptive: true, ef: true, bits: 6},
		{name: "1-bit adaptive", base: sched.Setting{QuantBits: 1, Adaptive: true}, adaptive: true, bits: 1},
	} {
		c := New(g, part, nparts, withBase(Config{}, tc.base))
		for idx := range c.Pairs {
			ps := c.Pairs[idx]
			if idx/nparts == idx%nparts {
				if ps != (PairState{}) {
					t.Fatalf("%s: diagonal pair %d has state", tc.name, idx)
				}
				continue
			}
			if (ps.Sampler != nil) != tc.sampler ||
				(ps.Adaptive != nil) != tc.adaptive || (ps.EF != nil) != tc.ef || ps.Bits != tc.bits {
				t.Fatalf("%s: pair %d state %+v", tc.name, idx, ps)
			}
		}
		if c.Setting(1) != tc.base {
			t.Fatalf("%s: Setting = %+v", tc.name, c.Setting(1))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("20-bit quantization did not panic")
		}
	}()
	New(g, part, nparts, Config{QuantBits: 20})
}

// TestScheduleAndSignals: without a schedule the schedule surface is inert;
// with one, pairs start on rung 0, Advance anneals them (re-seeding what
// changed), SetLevels validates and installs, and Signals reports the
// counters the streams accumulated.
func TestScheduleAndSignals(t *testing.T) {
	g, part := setup(t)
	off := New(g, part, nparts, Config{QuantBits: 8})
	if off.Signals() != nil || off.Levels() != nil {
		t.Fatal("schedule surface live without a schedule")
	}
	off.Advance(3) // no-op
	if err := off.SetLevels(make([]int, nparts*nparts)); err == nil {
		t.Fatal("SetLevels accepted without a schedule")
	}

	base := sched.Setting{QuantBits: 8, Adaptive: true, EF: true}
	c := New(g, part, nparts, withBase(Config{Seed: 5, Sched: sched.Policy{Enabled: true, EpochsPerLevel: 1}}, base))
	last := len(sched.Ladder(base)) - 1
	if lv := c.Levels(); len(lv) != nparts*nparts || lv[1] != 0 {
		t.Fatalf("initial levels %v", lv)
	}
	if c.Setting(1) == base {
		t.Fatal("rung 0 is already the base setting")
	}
	// Drive some traffic through pair 1's streams, then read it back.
	ps := &c.Pairs[1]
	if ps.Sampler == nil {
		t.Fatalf("rung 0 does not sample: %+v", c.Setting(1))
	}
	if ps.Adaptive != nil {
		ps.Adaptive.ChooseBits([]float64{0, 1, 2, 3})
	}
	if ps.EF != nil {
		ps.EF.PreCompress(1, []float64{1, 2})
		ps.EF.PostCompress(1, []float64{1, 2}, []float64{1, 1})
	}
	sg := c.Signals()[1]
	if (ps.Adaptive != nil && sg.BitsCalls != 1) || (ps.EF != nil && sg.EFUnits != 1) {
		t.Fatalf("signals %+v miss the adaptive/EF counters", sg)
	}
	for epoch := 1; epoch <= 2*last+2; epoch++ {
		c.Advance(epoch)
	}
	if lv := c.Levels(); lv[1] != last {
		t.Fatalf("levels after annealing %v, want rung %d", lv, last)
	}
	if c.Setting(1) != base || c.Pairs[1].Adaptive == nil || c.Pairs[1].EF == nil {
		t.Fatalf("final rung not re-seeded to the base: %+v", c.Pairs[1])
	}
	if err := c.SetLevels([]int{0}); err == nil {
		t.Fatal("short level vector accepted")
	}
	if err := c.SetLevels(make([]int, nparts*nparts)); err != nil {
		t.Fatal(err)
	}
	if c.Setting(1) == base || c.Pairs[1].Sampler == nil {
		t.Fatal("SetLevels did not re-seed the changed pairs")
	}
}

// TestStateRestore: a captured state restores bit-exactly into a fresh core
// (streams continue with identical residuals and counters), a stateless core
// — sampling alone included — captures nothing, and shape mismatches are
// errors.
func TestStateRestore(t *testing.T) {
	g, part := setup(t)
	pol := sched.Policy{Enabled: true, EpochsPerLevel: 1}
	for name, o := range map[string]Config{
		"sampling+ef":     {SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 3},
		"sampling+aq":     {SampleRate: 0.5, QuantBits: 8, AdaptiveQuant: true, Seed: 3},
		"aquant+ef":       {QuantBits: 8, AdaptiveQuant: true, ErrorFeedback: true},
		"sched(quant+ef)": {QuantBits: 8, ErrorFeedback: true, Seed: 3, Sched: pol},
	} {
		a := New(g, part, nparts, o)
		drive := func(c *Core, rounds int) {
			for r := 0; r < rounds; r++ {
				c.Advance(r)
				for idx := range c.Pairs {
					if ps := &c.Pairs[idx]; ps.Adaptive != nil {
						ps.Adaptive.ChooseBits([]float64{0, float64(idx), 2, 9})
					}
					feed(c, idx, r%2 == 1, r)
				}
			}
		}
		drive(a, 3)
		pairs, levels := a.State()
		if len(pairs) != nparts*nparts || (levels != nil) != o.Sched.Enabled {
			t.Fatalf("%s: state has %d pairs, levels %v", name, len(pairs), levels)
		}
		b := New(g, part, nparts, o)
		if err := b.Restore(pairs, levels); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		drive(a, 2)
		drive(b, 2)
		ap, al := a.State()
		bp, bl := b.State()
		if !reflect.DeepEqual(ap, bp) || !reflect.DeepEqual(al, bl) {
			t.Fatalf("%s: restored core diverged from the original", name)
		}
		if err := b.Restore(pairs[:2], levels); err == nil {
			t.Fatalf("%s: short pair vector accepted", name)
		}
		if o.Sched.Enabled {
			if err := b.Restore(pairs, levels[:1]); err == nil {
				t.Fatalf("%s: short level vector accepted", name)
			}
		} else if err := b.Restore(pairs, []int32{0}); err == nil {
			t.Fatalf("%s: levels accepted without a schedule", name)
		}
	}
	for _, o := range []Config{{QuantBits: 8}, {SampleRate: 0.5, Seed: 3}, {SampleRate: 0.5, Semantic: true}} {
		plain := New(g, part, nparts, o)
		if pairs, levels := plain.State(); pairs != nil || levels != nil {
			t.Fatalf("%+v: stateless core captured state", o)
		}
		if err := plain.Restore(nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := plain.Restore(make([]PairStreamState, nparts*nparts), nil); err == nil {
			t.Fatalf("%+v: pair streams accepted by a stateless core", o)
		}
	}
}

// TestReseedKeepsResidualSlabs: a pair moving between the q4+EF and q8+EF
// rungs keeps its error-feedback store, which comes back empty, and once its
// slabs are warm the move allocates nothing — the re-seed nor the round after
// it. The rung is installed on the scheduler and the pairs re-seeded, which
// is SetLevels without the changed-pair list it returns.
func TestReseedKeepsResidualSlabs(t *testing.T) {
	g, part := setup(t)
	c := New(g, part, nparts, Config{QuantBits: 8, ErrorFeedback: true, Seed: 3, Sched: sched.Policy{Enabled: true}})
	const q4ef, q8ef = 2, 3
	if l := c.sched.Ladder(); l[q4ef] != (sched.Setting{QuantBits: 4, EF: true}) || l[q8ef] != (sched.Setting{QuantBits: 8, EF: true}) {
		t.Fatalf("ladder %+v", l)
	}
	rung := func(lv int) []int {
		levels := make([]int, nparts*nparts)
		for i := range levels {
			levels[i] = lv
		}
		return levels
	}
	payload, sent := make([]float64, 8), make([]float64, 8)
	sent[0] = 1
	encode := func() {
		for idx := range c.Pairs {
			ef := c.Pairs[idx].EF
			for r := 0; ef != nil && r < 3; r++ {
				ef.SetUnits(r, c.Candidates(idx, r == 2))
				c.Walk(idx, r == 2, 0, r, func(u Unit) {
					k := compress.RoundUnitKey(r, u.Index)
					ef.PreCompress(k, payload)
					ef.PostCompress(k, payload, sent)
				})
			}
		}
	}
	if err := c.SetLevels(rung(q4ef)); err != nil {
		t.Fatal(err)
	}
	encode()
	stores := make([]*compress.ErrorFeedback, len(c.Pairs))
	for idx := range c.Pairs {
		stores[idx] = c.Pairs[idx].EF
	}
	for _, lv := range []int{q8ef, q4ef, q8ef} {
		if _, err := c.sched.SetLevels(rung(lv)); err != nil {
			t.Fatal(err)
		}
		if n := mallocs(func() {
			for idx := range c.Pairs {
				c.Reseed(idx)
			}
			encode()
			encode()
		}); n != 0 {
			t.Fatalf("re-seeding warm pairs to rung %d and encoding two epochs allocates %d times", lv, n)
		}
		for idx := range c.Pairs {
			ef := c.Pairs[idx].EF
			if ef != stores[idx] {
				t.Fatalf("pair %d at rung %d: store %p, was %p", idx, lv, ef, stores[idx])
			}
			// Three slots of every candidate, the last a backward one; the
			// second epoch corrects each.
			if units := 2*c.Candidates(idx, false) + c.Candidates(idx, true); ef != nil && (ef.Units() != units || ef.Corrected != int64(units*len(payload))) {
				t.Fatalf("pair %d: %d units, %d corrected, want %d units", idx, ef.Units(), ef.Corrected, units)
			}
		}
	}
	c.Reseed(1)
	if ef := c.Pairs[1].EF; ef.Units() != 0 || ef.Corrected != 0 {
		t.Fatalf("re-seeded store keeps %d units, %d corrected", ef.Units(), ef.Corrected)
	}
}

// mallocs counts the heap allocations f makes on one P.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRepartition: a perturbed partition dirties some pairs and not others;
// the core ends up structurally identical to one built on the new partition,
// dirty pairs restart their streams, clean pairs keep theirs, rung levels are
// untouched, and a malformed partition is an error that changes nothing.
func TestRepartition(t *testing.T) {
	g, part := setup(t)
	// Move partition-0 nodes with no neighbour in partition 2 over to 1: the
	// 1↔2 boundary sets cannot change, so those two pairs stay clean.
	next := append([]int(nil), part...)
	for u := range part {
		touches2 := part[u] != 0
		for _, v := range g.Neighbors(int32(u)) {
			touches2 = touches2 || part[v] == 2
		}
		if !touches2 {
			next[u] = 1
		}
	}
	for _, o := range []Config{
		{SampleRate: 0.5, QuantBits: 8, ErrorFeedback: true, Seed: 4},
		func() Config { o := semantic(); o.SampleRate, o.QuantBits, o.ErrorFeedback = 0.5, 8, true; return o }(),
		{QuantBits: 8, Seed: 4, Sched: sched.Policy{Enabled: true}},
	} {
		c := New(g, part, nparts, o)
		for idx := range c.Pairs {
			feed(c, idx, false, 0)
		}
		before, levels := c.State()
		if _, err := c.Repartition(part[:10]); err == nil {
			t.Fatal("short partition accepted")
		}
		if after, _ := c.State(); !reflect.DeepEqual(before, after) {
			t.Fatal("failed Repartition touched the streams")
		}
		dirty, err := c.Repartition(next)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirty) == 0 || len(dirty) == nparts*(nparts-1) {
			t.Fatalf("dirty set %v is not a strict, non-empty subset", dirty)
		}
		fresh := New(g, next, nparts, o)
		if !reflect.DeepEqual(c.Own, fresh.Own) || !reflect.DeepEqual(allArcs(c), allArcs(fresh)) ||
			!reflect.DeepEqual(c.stars, fresh.stars) || !reflect.DeepEqual(c.Part, fresh.Part) {
			t.Fatal("repartitioned topology differs from a fresh build")
		}
		if o.Semantic && string(core.MarshalPlans(nonNil(c.PairPlans))) != string(core.MarshalPlans(nonNil(fresh.PairPlans))) {
			t.Fatal("repartitioned plans differ from a fresh build")
		}
		after, levelsAfter := c.State()
		freshState, _ := fresh.State()
		isDirty := make(map[int]bool)
		for _, idx := range dirty {
			isDirty[idx] = true
		}
		for idx := range after {
			want := before[idx]
			if isDirty[idx] {
				want = freshState[idx]
			}
			if !reflect.DeepEqual(after[idx], want) {
				t.Fatalf("pair %d (dirty=%v): streams %+v, want %+v", idx, isDirty[idx], after[idx], want)
			}
		}
		if !reflect.DeepEqual(levels, levelsAfter) {
			t.Fatal("Repartition changed rung levels")
		}
		// A second move recycles the displaced bucketing.
		if _, err := c.Repartition(part); err != nil {
			t.Fatal(err)
		}
		if orig := New(g, part, nparts, o); !reflect.DeepEqual(allArcs(c), allArcs(orig)) || !reflect.DeepEqual(c.stars, orig.stars) {
			t.Fatal("moving back does not restore the arc buckets")
		}
	}
}

func TestBadInputsPanic(t *testing.T) {
	g, part := setup(t)
	for name, fn := range map[string]func(){
		"short partition": func() { New(g, part[:5], nparts, Config{}) },
		"bad plan config": func() {
			bad := append([]int(nil), part...)
			bad[0] = nparts + 3
			New(g, bad, nparts, semantic())
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMethodMatrixNames: every lane of the shared fixture is named after what
// it enables — its key, parameters stripped, is its MethodName — with and
// without a schedule wrapped around it, and all lanes carry the given seed.
func TestMethodMatrixNames(t *testing.T) {
	matrix := MethodMatrix(5)
	if len(matrix) != 11 {
		t.Fatalf("%d lanes, want the 11 combinations of Fig. 12(b)", len(matrix))
	}
	for key, cfg := range matrix {
		want := strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return -1
			}
			return r
		}, key)
		if got := cfg.MethodName(); got != want {
			t.Fatalf("lane %q: MethodName %q", key, got)
		}
		if cfg.Seed != 5 {
			t.Fatalf("lane %q: seed %d", key, cfg.Seed)
		}
		cfg.Sched.Enabled = true
		if got := cfg.MethodName(); got != "sched("+want+")" {
			t.Fatalf("lane %q scheduled: MethodName %q", key, got)
		}
	}
}

// TestTargetInvertsWalk holds Target to Walk on every lane of the method
// matrix, each also with sampling forced on, in both
// directions, on the partition the core was built for and after a
// repartition: every unit Walk yields is what Target names at its index, and
// a frame whose presence bitmap marks Walk's survivors decodes to exactly
// those units, in order.
func TestTargetInvertsWalk(t *testing.T) {
	g, part := setup(t)
	moved := append([]int(nil), part...)
	for u := 0; u < len(moved); u += 7 {
		moved[u] = (moved[u] + 1) % nparts
	}
	for name, base := range MethodMatrix(5) {
		for _, sampled := range []bool{false, true} {
			cfg := base
			if sampled {
				cfg.SampleRate = 0.5
			}
			c := New(g, part, nparts, cfg)
			for step, p := range [][]int{part, moved} {
				if _, err := c.Repartition(p); err != nil {
					t.Fatal(err)
				}
				for idx := range c.Pairs {
					for _, backward := range []bool{false, true} {
						units := collect(c, idx, backward, step, 1)
						for _, u := range units {
							group, receiver := c.Target(idx, backward, int(u.Index))
							if wg, wr := unitTarget(u); group != wg || receiver != wr {
								t.Fatalf("%s step %d pair %d backward=%v: Target(%d) = (%d, %d), Walk's unit %+v",
									name, step, idx, backward, u.Index, group, receiver, u)
							}
						}
						checkSurvivorFrame(t, c, idx, backward, units)
					}
				}
			}
		}
	}
}

// unitTarget is what Target should name for Walk's unit u: a group's index, a
// star's own index (a star fans out like a group, over its arcs), or an O2O
// residual's receiver.
func unitTarget(u Unit) (group, receiver int32) {
	switch {
	case u.Group >= 0:
		return u.Group, -1
	case u.Receiver < 0:
		return int32(u.Index), -1
	}
	return -1, u.Receiver
}

// checkSurvivorFrame encodes one message per unit, its index as the value,
// into a frame whose bitmap marks the units' candidates, and requires the
// decode — each message resolved through Target — to deliver exactly them.
func checkSurvivorFrame(t *testing.T, c *Core, idx int, backward bool, units []Unit) {
	t.Helper()
	if len(units) == 0 {
		return
	}
	var b wire.Batch
	b.Begin(wire.Frame{Width: 1, Count: c.Candidates(idx, backward), Sampled: true})
	for _, u := range units {
		b.Present(int(u.Index))
		b.Add(&wire.Message{Payload: []float64{float64(u.Index)}})
	}
	dec := wire.NewDecoder(b.Bytes())
	val := make([]float64, 1)
	for k := 0; dec.More(); k++ {
		hd, err := dec.Next()
		if err != nil || k >= len(units) || dec.Read(val) != nil {
			t.Fatalf("pair %d: message %d of %d: %v", idx, k, len(units), err)
		}
		u := units[k]
		group, receiver := c.Target(idx, backward, hd.Index)
		if wg, wr := unitTarget(u); int64(hd.Index) != u.Index || val[0] != float64(u.Index) || group != wg || receiver != wr {
			t.Fatalf("pair %d: message %d decodes as candidate %d → (%d, %d), Walk's unit %+v", idx, k, hd.Index, group, receiver, u)
		}
	}
}

// TestReproducibleAndGeneration: a core is reproducible iff no off-diagonal
// pair's current setting draws coins or carries residuals — on the matrix,
// exactly the lanes that neither sample nor feed back — and a scheduled core
// becomes so once every pair has annealed onto an uncoined base. Generation
// moves on every Reseed, Restore and Repartition (a clean one included), and
// on nothing a round does.
func TestReproducibleAndGeneration(t *testing.T) {
	g, part := setup(t)
	for name, cfg := range MethodMatrix(4) {
		want := !strings.Contains(name, "sampling") && !strings.Contains(name, "ef")
		if c := New(g, part, nparts, cfg); reproducible(nparts, c.Setting) != want {
			t.Errorf("%s: reproducible %v, want %v", name, !want, want)
		}
	}

	c := New(g, part, nparts, Config{QuantBits: 8, Seed: 5, Sched: sched.Policy{Enabled: true, EpochsPerLevel: 1, Stagger: -1}})
	last := len(sched.Ladder(c.base)) - 1
	for epoch := 0; epoch < last; epoch++ {
		if reproducible(nparts, c.Setting) {
			t.Fatalf("epoch %d: reproducible at levels %v", epoch, c.Levels())
		}
		before := c.Generation()
		c.Advance(epoch + 1)
		if c.Generation() == before {
			t.Fatalf("epoch %d: a rung change left the generation at %d", epoch, before)
		}
	}
	if !reproducible(nparts, c.Setting) {
		t.Fatalf("annealed onto the quant8 base at levels %v, not reproducible", c.Levels())
	}

	gen := c.Generation()
	feed(c, 1, false, 0)
	c.Advance(2*last + 1) // every pair already on the last rung: nothing changes
	if c.Generation() != gen {
		t.Fatalf("a walk and a no-op advance moved the generation %d → %d", gen, c.Generation())
	}
	if _, err := c.Repartition(part); err != nil {
		t.Fatal(err)
	}
	if c.Generation() == gen {
		t.Fatal("a clean repartition left the generation")
	}
	gen = c.Generation()
	if err := c.Restore(c.State()); err != nil {
		t.Fatal(err)
	}
	if c.Generation() == gen {
		t.Fatal("a restore left the generation")
	}
	plain := New(g, part, nparts, Config{})
	gen = plain.Generation()
	if err := plain.Restore(plain.State()); err != nil {
		t.Fatal(err)
	}
	if plain.Generation() == gen {
		t.Fatal("a stateless restore left the generation")
	}
}

// TestReusePolicy: a round is skipped only when reproducible on the caller's
// current generation and not a forced-fresh eval pass under delay; a round
// that runs is keyed with the current generation unless it may replay a
// delay slot (an epoch that does not transmit) or must never be reused.
func TestReusePolicy(t *testing.T) {
	exact := func(int) sched.Setting { return sched.Setting{} }
	coinedSetting := func(int) sched.Setting { return sched.Setting{SampleRate: 0.5} }
	for _, tc := range []struct {
		name    string
		p       ReusePolicy
		gen     uint64
		cur     uint64
		reuse   bool
		setting func(int) sched.Setting
	}{
		{"exact, current", ReusePolicy{}, 7, 7, true, exact},
		{"exact, stale", ReusePolicy{}, 6, 7, false, exact},
		{"coined, current", ReusePolicy{}, 7, 0, false, coinedSetting},
		{"delay transmits, stale", ReusePolicy{DelayPeriod: 3, Epoch: 6}, 6, 7, false, exact},
		{"delay replays, current", ReusePolicy{DelayPeriod: 3, Epoch: 7}, 7, 7, true, exact},
		{"delay replays, stale", ReusePolicy{DelayPeriod: 3, Epoch: 7}, 6, 0, false, exact},
		{"delay eval, current", ReusePolicy{DelayPeriod: 3, Epoch: 6, Eval: true}, 7, 0, false, exact},
		{"eval without delay, current", ReusePolicy{Epoch: 7, Eval: true}, 7, 7, true, exact},
	} {
		tc.p.NParts, tc.p.Setting = nparts, tc.setting
		cur, reuse := tc.p.Decide(tc.gen, 7)
		if cur != tc.cur || reuse != tc.reuse {
			t.Errorf("%s: Decide(%d, 7) = (%d, %v), want (%d, %v)", tc.name, tc.gen, cur, reuse, tc.cur, tc.reuse)
		}
	}
}
