// Package sched implements variable-rate communication scheduling: a
// deterministic per-link controller that re-tunes each ordered partition
// pair's compression method/width at epoch boundaries.
//
// The idea (Cerviño et al., "Variable Communication Rates"; Grappa) is that
// early training tolerates aggressive compression while late training does
// not. Every pair therefore climbs a fixed annealing ladder: it starts at
// sampling + 4-bit quantization, relaxes through error-feedback quantization
// rungs, and ends at the run's own base configuration (e.g. semantic-only,
// or semantic+quant8+EF). Which rung a pair sits on at a given epoch is
// decided by Decide — a pure function of (policy, epoch, seed, previous
// levels, per-pair signals) — so the analytic engine, the in-process worker
// cluster, and a multi-process fleet all pick identical schedules and stay
// bit-reproducible.
//
// # Signal contract
//
// Decide may only gate on signals that are integer-exact across runtimes
// and restorable from a checkpoint:
//
//   - BitsSum/BitsCalls: cumulative adaptive bit-width choices. Replicas
//     that never encode a pair hold zeros, so per-node snapshots merge by
//     summation.
//   - EFUnits/EFCorrected: error-feedback unit and correction counts. The
//     forward and backward directions of a pair live on different nodes but
//     use disjoint round-keyed units, so these also merge by summation.
//
// Signals holds these counters and nothing else but Draws, which no runtime
// fills and Decide does not read (a sampling coin is a function of its round,
// so there is no count of coins to signal).
package sched

import (
	"fmt"

	"scgnn/internal/compress"
)

// Setting is one rung of the annealing ladder: the per-pair compression
// gates a runtime applies to that pair's payload stream. Delayed
// transmission is deliberately absent — delay caches whole-round aggregate
// matrices (the sum over all pairs), so it cannot vary per pair and stays a
// global base-config feature.
type Setting struct {
	// SampleRate in (0,1) samples transfer units (0 or 1 disables).
	SampleRate float64
	// QuantBits in 1..16 is the payload quantization width; 0 or >= 32
	// disables it (see exchange.Config.QuantBits).
	QuantBits int
	// Adaptive picks the quantization width per message (needs QuantBits).
	Adaptive bool
	// EF enables residual error feedback (needs QuantBits).
	EF bool
}

// Equal reports whether two settings configure identical streams.
func (s Setting) Equal(o Setting) bool { return s == o }

// Ladder returns the annealing ladder for a base configuration, from the
// most aggressive rung to the base itself. Rung quantizer widths clamp to
// the base's own width when the base quantizes more tightly, so no rung ever
// costs more bytes than the base — even a 4-bit base still anneals upward
// through its sampled rungs rather than detouring through a wider quantizer.
func Ladder(base Setting) []Setting {
	q4, q8 := clampBits(base, 4), clampBits(base, 8)
	return []Setting{
		{SampleRate: 0.25, QuantBits: q4},
		{SampleRate: 0.5, QuantBits: q4},
		{QuantBits: q4, EF: true},
		{QuantBits: q8, EF: true},
		base,
	}
}

// clampBits narrows a rung's quantizer to the base width when the base
// quantizes more tightly than the rung would.
func clampBits(base Setting, bits int) int {
	if base.QuantBits > 0 && base.QuantBits < bits {
		return base.QuantBits
	}
	return bits
}

// Policy tunes the annealing schedule. The zero value (with Enabled set)
// uses the defaults below.
type Policy struct {
	// Enabled turns variable-rate scheduling on.
	Enabled bool
	// EpochsPerLevel is the guaranteed annealing pace: a pair's rung floor
	// rises by one every EpochsPerLevel epochs regardless of signals, so
	// every schedule converges to the base configuration. Default 2.
	EpochsPerLevel int
	// Stagger spreads pair transitions over up to Stagger+1 epochs by a
	// seed-derived per-pair offset, so the fleet does not reconfigure every
	// link on the same boundary. Default 1; any negative value means no
	// stagger (every pair transitions together).
	Stagger int
	// BitsTrigger accelerates a pair by one rung when its cumulative mean
	// adaptive width reaches this many bits (the payload stream is asking
	// for precision). Default 6.
	BitsTrigger float64
	// EFTrigger accelerates a pair by one rung when its cumulative
	// error-feedback corrections reach this many values per tracked unit
	// (residuals are doing heavy lifting). Default 64.
	EFTrigger float64
}

// WithDefaults fills unset policy knobs.
func (p Policy) WithDefaults() Policy {
	if p.EpochsPerLevel <= 0 {
		p.EpochsPerLevel = 2
	}
	// Negative Stagger (explicit "none") passes through unchanged — the
	// offset helper treats any width ≤ 0 as no stagger — which keeps
	// WithDefaults idempotent: Scheduler normalizes at construction and
	// Decide normalizes again on every call.
	if p.Stagger == 0 {
		p.Stagger = 1
	}
	if p.BitsTrigger <= 0 {
		p.BitsTrigger = 6
	}
	if p.EFTrigger <= 0 {
		p.EFTrigger = 64
	}
	return p
}

// Signals is one ordered pair's scheduler-visible state, captured at an
// epoch boundary: integer counters, the decision inputs (see the package
// comment for the exactness contract).
type Signals struct {
	// Draws is unfilled and unread: no runtime reports it and no decision
	// gates on it (see the package comment).
	Draws int64
	// BitsSum and BitsCalls accumulate adaptive bit-width choices.
	BitsSum   int64
	BitsCalls int64
	// EFUnits counts tracked error-feedback units; EFCorrected counts
	// values corrected.
	EFUnits     int64
	EFCorrected int64
}

// Merge folds o's counters into s: they sum (each replica holds its
// disjoint share or an exact replica-reported zero).
func (s Signals) Merge(o Signals) Signals {
	s.BitsSum += o.BitsSum
	s.BitsCalls += o.BitsCalls
	s.EFUnits += o.EFUnits
	s.EFCorrected += o.EFCorrected
	return s
}

// MergeNodeSignals folds per-node signal snapshots into the cluster-wide
// per-pair view the decision function needs. perNode[n] is node n's full
// nparts² snapshot. Every counter is an encoder's, so they sum across nodes:
// each direction of a pair is encoded by exactly one node and non-encoders
// hold zeros.
func MergeNodeSignals(nparts int, perNode [][]Signals) []Signals {
	if len(perNode) != nparts {
		panic(fmt.Sprintf("sched: %d node snapshots for %d parts", len(perNode), nparts))
	}
	npairs := nparts * nparts
	merged := make([]Signals, npairs)
	for node, sigs := range perNode {
		if len(sigs) != npairs {
			panic(fmt.Sprintf("sched: node %d reports %d pair signals, want %d", node, len(sigs), npairs))
		}
		for i, s := range sigs {
			merged[i] = merged[i].Merge(s)
		}
	}
	return merged
}

// stagger returns pair idx's seed-derived transition offset in [0, width].
func stagger(seed int64, idx, width int) int {
	if width <= 0 {
		return 0
	}
	return int(uint64(compress.DeriveSeed(seed, idx)) % uint64(width+1))
}

// Decide returns the next per-pair rung levels — THE pure decision
// function. For every pair:
//
//	floor  = max(0, (epoch − stagger(seed, idx)) / EpochsPerLevel)
//	accel  = [mean adaptive bits ≥ BitsTrigger] + [EF corrections/unit ≥ EFTrigger]
//	next   = max(prev, min(maxLevel, floor + accel))
//
// The max against prev makes schedules monotone (a relaxed pair never
// re-tightens); the epoch-driven floor guarantees convergence to maxLevel
// even when no signals fire. Inputs are value-copied, the result is a fresh
// slice, and nothing here reads clocks, maps, or goroutine state — calling
// Decide twice with equal arguments yields equal results on any runtime.
func Decide(p Policy, epoch int, seed int64, prev []int, sigs []Signals, maxLevel int) []int {
	p = p.WithDefaults()
	if len(sigs) != len(prev) {
		panic(fmt.Sprintf("sched: %d signal snapshots for %d pairs", len(sigs), len(prev)))
	}
	next := make([]int, len(prev))
	for i, lv := range prev {
		floor := 0
		if off := stagger(seed, i, p.Stagger); epoch > off {
			floor = (epoch - off) / p.EpochsPerLevel
		}
		accel := 0
		sg := sigs[i]
		if sg.BitsCalls > 0 && float64(sg.BitsSum) >= p.BitsTrigger*float64(sg.BitsCalls) {
			accel++
		}
		if sg.EFUnits > 0 && float64(sg.EFCorrected) >= p.EFTrigger*float64(sg.EFUnits) {
			accel++
		}
		n := floor + accel
		if n > maxLevel {
			n = maxLevel
		}
		if n < lv {
			n = lv
		}
		next[i] = n
	}
	return next
}

// Scheduler carries one runtime's schedule state: the ladder for its base
// configuration and the current per-pair levels. All mutation goes through
// Advance (the decision path) or SetLevels (the restore/broadcast path).
type Scheduler struct {
	policy Policy
	seed   int64
	ladder []Setting
	levels []int
}

// New builds a scheduler for npairs ordered pairs starting at rung 0.
func New(policy Policy, base Setting, seed int64, npairs int) *Scheduler {
	return &Scheduler{
		policy: policy.WithDefaults(),
		seed:   seed,
		ladder: Ladder(base),
		levels: make([]int, npairs),
	}
}

// Ladder returns the annealing ladder (shared; callers must not mutate).
func (s *Scheduler) Ladder() []Setting { return s.ladder }

// MaxLevel returns the index of the final (base-configuration) rung.
func (s *Scheduler) MaxLevel() int { return len(s.ladder) - 1 }

// Levels returns a copy of the current per-pair rung levels.
func (s *Scheduler) Levels() []int { return append([]int(nil), s.levels...) }

// Setting returns the rung configuration pair idx currently runs.
func (s *Scheduler) Setting(idx int) Setting { return s.ladder[s.levels[idx]] }

// Advance runs the decision function for an epoch boundary and installs the
// result, returning the ascending pair indices whose rung changed (the
// pairs a runtime must reseed).
func (s *Scheduler) Advance(epoch int, sigs []Signals) []int {
	next := Decide(s.policy, epoch, s.seed, s.levels, sigs, s.MaxLevel())
	var changed []int
	for i := range next {
		if next[i] != s.levels[i] {
			changed = append(changed, i)
		}
	}
	s.levels = next
	return changed
}

// SetLevels overwrites the per-pair levels (a coordinator broadcast or a
// checkpoint restore), returning the ascending pair indices that changed.
func (s *Scheduler) SetLevels(levels []int) ([]int, error) {
	if len(levels) != len(s.levels) {
		return nil, fmt.Errorf("sched: %d levels for %d pairs", len(levels), len(s.levels))
	}
	var changed []int
	for i, lv := range levels {
		if lv < 0 || lv > s.MaxLevel() {
			return nil, fmt.Errorf("sched: pair %d level %d out of [0,%d]", i, lv, s.MaxLevel())
		}
		if lv != s.levels[i] {
			changed = append(changed, i)
		}
	}
	copy(s.levels, levels)
	return changed, nil
}
