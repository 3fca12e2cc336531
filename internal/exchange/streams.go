package exchange

import (
	"errors"
	"fmt"

	"scgnn/internal/compress"
	"scgnn/internal/sched"
)

// PairState is one ordered partition pair's compression. A pair is touched by
// exactly one goroutine per round (its source partition forward, its
// destination backward) with a barrier between rounds, so none of it needs
// locking; and because every pair has its own coin seed and residual store,
// drop decisions and error feedback are independent of any parallel schedule.
type PairState struct {
	// Sampler is the pair's coin (nil when it does not sample), keyed by
	// sending row or group (see Walk).
	Sampler *compress.Sampler
	EF      *compress.ErrorFeedback
	// Bits is the pair's quantization width (0 = payloads ship raw). Under
	// Adaptive it is the upper bound of the per-message choice, which
	// compress.AdaptiveUpTo(Bits) makes.
	Bits     int
	Adaptive bool
}

// Streams holds every pair's PairState plus the variable-rate schedule that
// picks each pair's setting (nil schedule: every pair runs the base setting).
type Streams struct {
	// Pairs is indexed s*nparts+t; diagonal entries stay zero.
	Pairs []PairState

	nparts int
	base   sched.Setting
	seed   int64
	sched  *sched.Scheduler
	// efs[idx] is pair idx's error-feedback store, kept across Reseed once
	// created; units is Core.Candidates, which bounds a restored one.
	efs   []*compress.ErrorFeedback
	units func(idx int, backward bool) int
	// gen counts the events that can change what a round computes on a fixed
	// input: every Reseed and Restore, and every Core.Repartition.
	gen uint64
}

func (s *Streams) init(nparts int, base sched.Setting, seed int64, policy sched.Policy, units func(idx int, backward bool) int) {
	*s = Streams{Pairs: make([]PairState, nparts*nparts), nparts: nparts, base: base, seed: seed,
		efs: make([]*compress.ErrorFeedback, nparts*nparts), units: units}
	if policy.Enabled {
		s.sched = sched.New(policy, base, seed, nparts*nparts)
	}
	for idx := range s.Pairs {
		s.Reseed(idx)
	}
}

// Setting resolves the compression gates pair idx currently runs: its rung
// when variable-rate scheduling is on, else the base setting.
func (s *Streams) Setting(idx int) sched.Setting {
	if s.sched != nil {
		return s.sched.Setting(idx)
	}
	return s.base
}

// Reseed (re)creates pair idx's state from scratch under its current setting:
// the sampler is seeded DeriveSeed(seed, idx), the error-feedback store drops
// its history (it keeps its slabs; its encoder declares each round slot's
// unit count). Used at construction, for the dirty pairs of a Repartition,
// and whenever a pair changes rung — a re-seeded pair behaves exactly like
// the same pair in a freshly built runtime, which is what keeps reconfigured
// runtimes equal.
// Gates: sampling for a rate in (0,1), quantization for bits in (0,32) with
// adaptive width and error feedback riding on it. A width outside 1..16
// panics.
func (s *Streams) Reseed(idx int) {
	s.gen++
	ps := &s.Pairs[idx]
	*ps = PairState{}
	if idx/s.nparts == idx%s.nparts {
		return
	}
	st := s.Setting(idx)
	if samples(st) {
		ps.Sampler = compress.NewSampler(st.SampleRate, compress.DeriveSeed(s.seed, idx))
	}
	if quantizes(st) {
		ps.Bits = compress.NewQuantizer(st.QuantBits).Bits // validates the width
		ps.Adaptive = st.Adaptive
		if st.EF {
			if s.efs[idx] == nil {
				s.efs[idx] = compress.NewErrorFeedback()
			}
			ps.EF = s.efs[idx]
			ps.EF.Reset()
		}
	}
}

// Signals snapshots every pair's scheduler-visible counters under the sched
// package's signal contract (nil when scheduling is off): cumulative since
// the pair was last re-seeded, integer fields exact on every runtime. A
// replica that never encodes a pair reports zeros for it, so a coordinator
// merges replicas with sched.MergeNodeSignals.
func (s *Streams) Signals() []sched.Signals {
	if s.sched == nil {
		return nil
	}
	sigs := make([]sched.Signals, len(s.Pairs))
	for idx := range s.Pairs {
		if ef := s.Pairs[idx].EF; ef != nil {
			sigs[idx] = sched.Signals{EFUnits: int64(ef.Units()), EFCorrected: ef.Corrected}
		}
	}
	return sigs
}

// Levels returns a copy of the per-pair rung levels, or nil when
// variable-rate scheduling is off.
func (s *Streams) Levels() []int {
	if s.sched == nil {
		return nil
	}
	return s.sched.Levels()
}

// Advance is the epoch-boundary decision point of a self-scheduling runtime:
// the scheduler reads the signal snapshot, runs its pure decision function,
// and every pair whose rung changed is re-seeded. A no-op when scheduling is
// off.
func (s *Streams) Advance(epoch int) {
	if s.sched == nil {
		return
	}
	for _, idx := range s.sched.Advance(epoch, s.Signals()) {
		s.Reseed(idx)
	}
}

// SetLevels installs externally decided rung levels (a coordinator broadcast)
// and re-seeds every pair whose rung changed. On error — scheduling off or
// malformed levels — nothing changes.
func (s *Streams) SetLevels(levels []int) error {
	if s.sched == nil {
		return errors.New("exchange: SetLevels without a schedule")
	}
	changed, err := s.sched.SetLevels(levels)
	if err != nil {
		return err
	}
	for _, idx := range changed {
		s.Reseed(idx)
	}
	return nil
}

// PairStreamState is one pair's serializable stream state: its error-feedback
// residuals, in full. (A sampler has no state to save: its coins are a
// function of the round; nor has an adaptive quantizer: its width is chosen
// from the payload alone.)
type PairStreamState struct {
	EF map[int64][]float64
	// EFCorrected is the scheduler-visible cumulative correction count (zero
	// when the pair runs no error feedback): restoring it keeps a resumed
	// run's schedule decisions bit-equal to an undisturbed one.
	EFCorrected int64
}

// coined reports whether a pair running setting st flips sampler coins or
// carries error-feedback residuals — the two gates under which what a pair
// ships depends on more than the round's input: coins on the round's
// (epoch, ordinal), residuals on earlier rounds (Reseed applies the same
// gates).
func coined(st sched.Setting) bool {
	return samples(st) || (quantizes(st) && st.EF)
}

// samples and quantizes report whether st has a sampling rate and a
// quantization width.
func samples(st sched.Setting) bool   { return st.SampleRate > 0 && st.SampleRate < 1 }
func quantizes(st sched.Setting) bool { return st.QuantBits > 0 && st.QuantBits < 32 }

// stateful reports whether any pair can carry stream state worth saving:
// always under a schedule (rungs below the base feed back), else iff the base
// setting quantizes with error feedback. Sampling and adaptive widths alone
// keep none.
func (s *Streams) stateful() bool {
	return s.sched != nil || (quantizes(s.base) && s.base.EF)
}

// reproducible reports whether a round run now, with pair idx on
// setting(idx), gives the bits the last round on the same input gave, as long
// as Generation has not moved since: no off-diagonal pair's setting is
// coined. Exact, semantic, fixed-width and adaptive lanes are reproducible
// (an adaptive width is chosen from the payload alone); a scheduled run
// becomes so once every pair sits on an uncoined rung.
func reproducible(nparts int, setting func(idx int) sched.Setting) bool {
	for idx := 0; idx < nparts*nparts; idx++ {
		if idx/nparts != idx%nparts && coined(setting(idx)) {
			return false
		}
	}
	return true
}

// ReusePolicy is what a runtime knows about the forward round it is asked to
// skip (gnn.RoundReuser): the pair settings in force (Streams.Setting, or the
// fleet coordinator's view of it) and the round's place in the
// delayed-transmission schedule.
type ReusePolicy struct {
	NParts  int
	Setting func(idx int) sched.Setting
	// DelayPeriod is the delayed-transmission period (≤ 1: none), Epoch the
	// epoch the round runs in, and Eval marks a forced-fresh eval pass.
	DelayPeriod, Epoch int
	Eval               bool
}

// Decide is the one reproducible-round policy: the cluster, the engine and
// the fleet coordinator all answer gnn.RoundReuser's ReuseRound with it. gen is the generation the
// caller's last round on its fixed input ran under (0 for none) and cur the
// current Generation (never 0). It returns (gen, true) when the round may be
// skipped — it is reproducible and gen is current — and the caller then
// advances its round ordinal as the round would have. Otherwise the caller
// runs the round and keys its output with the first result: cur, or 0 when
// the output must never be reused —
//   - the round is not reproducible;
//   - a forced-fresh eval pass under delay, which sums remote contributions
//     straight into its output where a delayed training round adds them from
//     the slot, so the two can round differently (nor is it skipped);
//   - an epoch that does not transmit under delay, whose round may replay a
//     slot filled under an earlier generation (it may still be skipped on a
//     current gen, which was keyed on a transmitting epoch's fresh round).
func (p ReusePolicy) Decide(gen, cur uint64) (uint64, bool) {
	delay := p.DelayPeriod > 1
	if (delay && p.Eval) || !reproducible(p.NParts, p.Setting) {
		return 0, false
	}
	if gen == cur {
		return gen, true
	}
	if delay && p.Epoch%p.DelayPeriod != 0 {
		return 0, false
	}
	return cur, false
}

// Generation is a counter that moves on every event that can change what a
// round computes on a fixed input: a pair re-seeded (construction, a rung
// change, a dirty pair of a Repartition), a Restore, and every
// Core.Repartition. Two rounds on the same input under one Generation of a
// reproducible core give the same bits (see ReusePolicy).
func (s *Streams) Generation() uint64 { return s.gen }

// State captures every pair's stream state and the rung vector, deep-copied
// (pairs is nil for a stateless configuration, levels when scheduling is off).
func (s *Streams) State() (pairs []PairStreamState, levels []int32) {
	if s.stateful() {
		pairs = make([]PairStreamState, len(s.Pairs))
		for i := range s.Pairs {
			if ef := s.Pairs[i].EF; ef != nil {
				pairs[i] = PairStreamState{EF: ef.Snapshot(), EFCorrected: ef.Corrected}
			}
		}
	}
	for _, lv := range s.Levels() {
		levels = append(levels, int32(lv))
	}
	return pairs, levels
}

// Restore rewinds the streams to a captured State: the rung vector lands
// first (each pair's gates derive from its rung), then every pair is re-seeded
// and given back its saved residuals and counters. The streams must have been
// built under the configuration the state was captured under; a shape
// mismatch is an error, as is a residual map the pair's store cannot hold
// (compress.ErrBadResiduals). On error nothing changes; on success Generation
// moves, whether or not any pair is stateful.
func (s *Streams) Restore(pairs []PairStreamState, levels []int32) error {
	want := 0
	if s.stateful() {
		want = len(s.Pairs)
	}
	if len(pairs) != want {
		return fmt.Errorf("exchange: state has %d pair streams, runtime has %d (method config mismatch)", len(pairs), want)
	}
	for i := range pairs {
		if err := compress.CheckResiduals(pairs[i].EF, max(s.units(i, false), s.units(i, true))); err != nil {
			return fmt.Errorf("exchange: state pair %d: %w", i, err)
		}
	}
	if s.sched != nil {
		lv := make([]int, len(levels))
		for i, v := range levels {
			lv[i] = int(v)
		}
		if _, err := s.sched.SetLevels(lv); err != nil {
			return fmt.Errorf("exchange: state: %w (sched config mismatch)", err)
		}
	} else if levels != nil {
		return errors.New("exchange: state carries schedule levels but scheduling is off (sched config mismatch)")
	}
	s.gen++
	for i := range pairs {
		s.Reseed(i)
		if ef := s.Pairs[i].EF; ef != nil {
			ef.Restore(pairs[i].EF)
			ef.Corrected = pairs[i].EFCorrected
		}
	}
	return nil
}
