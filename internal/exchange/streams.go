package exchange

import (
	"errors"
	"fmt"

	"scgnn/internal/compress"
	"scgnn/internal/sched"
)

// PairState is one ordered partition pair's stateful compression. A pair is
// touched by exactly one goroutine per round (its source partition forward,
// its destination backward) with a barrier between rounds, so none of it
// needs locking; and because every pair consumes its own RNG stream and
// residual store, drop decisions and error feedback are independent of any
// parallel schedule.
type PairState struct {
	Sampler     *compress.Sampler
	NodeSampler *compress.NodeSampler
	Adaptive    *compress.AdaptiveQuantizer
	EF          *compress.ErrorFeedback
	// Bits is the pair's quantization width (0 = payloads ship raw). Under
	// Adaptive it is the upper bound of the per-message choice.
	Bits int
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
}

func (s *Streams) init(nparts int, base sched.Setting, seed int64, policy sched.Policy) {
	*s = Streams{Pairs: make([]PairState, nparts*nparts), nparts: nparts, base: base, seed: seed}
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
// the sampler restarts its DeriveSeed(seed, idx) stream at the beginning, the
// adaptive quantizer and error-feedback store drop their history. Used at
// construction, for the dirty pairs of a Repartition, and whenever a pair
// changes rung — a re-seeded pair behaves exactly like the same pair in a
// freshly built runtime, which is what keeps reconfigured runtimes equal.
// Gates: sampling for a rate in (0,1), quantization for bits in (0,32) with
// adaptive width and error feedback riding on it. A width outside 1..16
// panics.
func (s *Streams) Reseed(idx int) {
	ps := &s.Pairs[idx]
	*ps = PairState{}
	if idx/s.nparts == idx%s.nparts {
		return
	}
	st := s.Setting(idx)
	if st.SampleRate > 0 && st.SampleRate < 1 {
		pairSeed := compress.DeriveSeed(s.seed, idx)
		if st.SampleNodes {
			ps.NodeSampler = compress.NewNodeSampler(st.SampleRate, pairSeed)
		} else {
			ps.Sampler = compress.NewSampler(st.SampleRate, pairSeed)
		}
	}
	if st.QuantBits > 0 && st.QuantBits < 32 {
		ps.Bits = compress.NewQuantizer(st.QuantBits).Bits // validates the width
		if st.Adaptive {
			ps.Adaptive = compress.NewAdaptiveQuantizer(min(2, st.QuantBits), st.QuantBits, 0)
		}
		if st.EF {
			ps.EF = compress.NewErrorFeedback()
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
		ps, sg := &s.Pairs[idx], &sigs[idx]
		if ps.Sampler != nil {
			sg.Draws = ps.Sampler.Draws()
		}
		if ps.Adaptive != nil {
			sg.BitsSum, sg.BitsCalls = ps.Adaptive.BitsSum, ps.Adaptive.Calls
		}
		if ps.EF != nil {
			sg.EFUnits = int64(ps.EF.Units())
			sg.EFCorrected = ps.EF.Corrected
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

// PairStreamState is one pair's serializable stream position. Sampler streams
// are stored as draw counts (restore re-derives the seed and fast-forwards);
// the node sampler's xorshift state word is stored directly; error-feedback
// residuals are stored in full.
type PairStreamState struct {
	SamplerDraws int64
	NodeState    uint64
	EF           map[int64][]float64
	// Scheduler-visible cumulative counters (zero when the pair runs no
	// adaptive quantizer / error feedback): restoring them keeps a resumed
	// run's schedule decisions bit-equal to an undisturbed one.
	AdaptiveBitsSum int64
	AdaptiveCalls   int64
	EFCorrected     int64
}

// stateful reports whether any pair can carry stream state worth saving:
// always under a schedule (rungs below the base sample and quantize), else
// iff the base setting samples, adapts or feeds back.
func (s *Streams) stateful() bool {
	b := s.base
	quant := b.QuantBits > 0 && b.QuantBits < 32
	return s.sched != nil || (b.SampleRate > 0 && b.SampleRate < 1) || (quant && (b.Adaptive || b.EF))
}

// State captures every pair's stream position and the rung vector, deep-copied
// (pairs is nil for a stateless configuration, levels when scheduling is off).
func (s *Streams) State() (pairs []PairStreamState, levels []int32) {
	if s.stateful() {
		pairs = make([]PairStreamState, len(s.Pairs))
		for i := range s.Pairs {
			ps, st := &s.Pairs[i], &pairs[i]
			if ps.Sampler != nil {
				st.SamplerDraws = ps.Sampler.Draws()
			}
			if ps.NodeSampler != nil {
				st.NodeState = ps.NodeSampler.State()
			}
			if ps.EF != nil {
				st.EF, st.EFCorrected = ps.EF.Snapshot(), ps.EF.Corrected
			}
			if ps.Adaptive != nil {
				st.AdaptiveBitsSum, st.AdaptiveCalls = ps.Adaptive.BitsSum, ps.Adaptive.Calls
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
// and fast-forwarded to its saved position. The streams must have been built
// under the configuration the state was captured under; a shape mismatch is
// an error.
func (s *Streams) Restore(pairs []PairStreamState, levels []int32) error {
	want := 0
	if s.stateful() {
		want = len(s.Pairs)
	}
	if len(pairs) != want {
		return fmt.Errorf("exchange: state has %d pair streams, runtime has %d (method config mismatch)", len(pairs), want)
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
	for i := range pairs {
		s.Reseed(i)
		ps, st := &s.Pairs[i], &pairs[i]
		if ps.Sampler != nil {
			ps.Sampler.Skip(st.SamplerDraws)
		}
		if ps.NodeSampler != nil {
			ps.NodeSampler.SetState(st.NodeState)
		}
		if ps.EF != nil {
			ps.EF.Restore(st.EF)
			ps.EF.Corrected = st.EFCorrected
		}
		if ps.Adaptive != nil {
			ps.Adaptive.BitsSum, ps.Adaptive.Calls = st.AdaptiveBitsSum, st.AdaptiveCalls
		}
	}
	return nil
}
