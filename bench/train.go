package main

import (
	"fmt"
	"math"
	"syscall"
	"time"

	"scgnn/internal/gnn"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

// training is what one pass over a workload's epoch budget measured. The
// same struct comes out of the untraced loop (gnn.Trainer.RunEpoch) and the
// traced one (bench's own loop over the same public pieces), so the two can
// be compared field by field.
type training struct {
	EpochMs    []float64 `json:"epoch_ms"`    // timed epochs only
	BoundaryMs []float64 `json:"boundary_ms"` // every boundary operation
	Losses     []float64 `json:"losses"`
	ValAcc     []float64 `json:"val_acc"`
	Bytes      []int64   `json:"bytes"` // partition-crossing bytes per epoch
	TrainS     float64   `json:"train_s"`
	// TimeToAccS is -1 when no epoch reached the target.
	TimeToAccS float64 `json:"time_to_acc_s"`
	CPUMs      float64 `json:"cpu_ms"` // user+sys over the timed window
	TestAcc    float64 `json:"test_acc"`
	// RungChanges counts pair rung transitions the scheduler made (traced
	// pass of a scheduled workload only).
	RungChanges int `json:"rung_changes,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// epochStepper hides the one difference between the two passes: how an
// epoch is executed and how the loop state is captured for a checkpoint.
type epochStepper interface {
	step() (gnn.EpochStats, error)
	state() *gnn.TrainerState
	finish() (testAcc float64, err error)
}

// trainerStepper is the untraced pass: gnn.Trainer as every CLI drives it.
type trainerStepper struct{ t *gnn.Trainer }

func (s trainerStepper) step() (gnn.EpochStats, error) { return s.t.RunEpoch() }
func (s trainerStepper) state() *gnn.TrainerState      { return s.t.State() }
func (s trainerStepper) finish() (float64, error) {
	res, err := s.t.Finish()
	if err != nil {
		return 0, err
	}
	return res.TestAcc, nil
}

// train runs the workload's epoch budget through stepper, timing epochs and
// boundary operations from outside.
func (j *job) train(model *gnn.GCN, stepper epochStepper, tr *tracer) (*training, error) {
	w := j.w
	out := &training{TimeToAccS: -1}
	var cpu0 time.Duration
	start := time.Now()
	for e := 0; e < w.epochs(); e++ {
		if e == w.warm {
			cpu0 = cpuTime()
		}
		if j.boundaryDue(e) {
			t0 := time.Now()
			id := tr.begin("boundary")
			err := j.runBoundary(model, stepper.state, e)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("boundary before epoch %d: %w", e, err)
			}
			out.BoundaryMs = append(out.BoundaryMs, ms(time.Since(t0)))
		}
		t0 := time.Now()
		st, err := stepper.step()
		dt := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		if e >= w.warm {
			out.EpochMs = append(out.EpochMs, ms(dt))
		}
		out.Losses = append(out.Losses, st.Loss)
		out.ValAcc = append(out.ValAcc, st.ValAcc)
		out.Bytes = append(out.Bytes, j.epochBytes())
		if out.TimeToAccS < 0 && st.ValAcc >= w.target {
			out.TimeToAccS = time.Since(start).Seconds()
		}
	}
	out.CPUMs = ms(cpuTime() - cpu0)
	acc, err := stepper.finish()
	if err != nil {
		return nil, fmt.Errorf("final evaluation: %w", err)
	}
	out.TrainS = time.Since(start).Seconds()
	out.TestAcc = acc
	return out, nil
}

func (j *job) newTrainer(model *gnn.GCN) *gnn.Trainer {
	ds := j.ds
	return gnn.NewTrainer(model, ds.Features, ds.Labels, ds.TrainMask, ds.ValMask, ds.TestMask,
		gnn.TrainConfig{Epochs: j.w.epochs(), LR: learnRate})
}

// trainUntraced is the pass every end-to-end metric comes from.
func (j *job) trainUntraced() (*training, error) {
	model := j.newModel(j.agg)
	return j.train(model, trainerStepper{j.newTrainer(model)}, nil)
}

// tracedAgg records a span around every aggregate round and epoch prologue
// of the runtime it wraps.
type tracedAgg struct {
	inner gnn.Aggregator
	tr    *tracer
}

func (a *tracedAgg) Forward(h *tensor.Matrix) *tensor.Matrix {
	id := a.tr.begin("agg.fwd")
	defer a.tr.end(id)
	return a.inner.Forward(h)
}

func (a *tracedAgg) Backward(g *tensor.Matrix) *tensor.Matrix {
	id := a.tr.begin("agg.bwd")
	defer a.tr.end(id)
	return a.inner.Backward(g)
}

func (a *tracedAgg) StartEpoch(epoch int) {
	if em, ok := a.inner.(gnn.EpochMarker); ok {
		id := a.tr.begin("agg.start")
		defer a.tr.end(id)
		em.StartEpoch(epoch)
	}
}

func (a *tracedAgg) StartEvalEpoch(epoch int) {
	if em, ok := a.inner.(gnn.EvalMarker); ok {
		em.StartEvalEpoch(epoch)
	}
}

// tracedStepper is gnn.Trainer.RunEpoch taken apart: the same calls in the
// same order on the same public pieces, with a span around each, so the
// losses must equal the untraced pass's.
type tracedStepper struct {
	j     *job
	model *gnn.GCN
	opt   *nn.Adam
	tr    *tracer

	next      int
	sinceBest int
	best      float64
	epochs    []gnn.EpochStats

	levels      []int
	rungChanges int
}

func (s *tracedStepper) step() (st gnn.EpochStats, err error) {
	defer func() {
		// The runtimes report a failed round by panicking on the caller's
		// goroutine (gnn.Aggregator has no error result); Trainer.RunEpoch
		// turns that into an error and so does this loop.
		if r := recover(); r != nil {
			err = fmt.Errorf("traced epoch %d: %v", s.next, r)
		}
	}()
	ds, tr := s.j.ds, s.tr
	id := tr.begin("epoch")
	s.model.StartEpoch(s.next)
	var logits, grad *tensor.Matrix
	var loss float64
	tr.in("forward", func() { logits = s.model.Forward(ds.Features) })
	tr.in("loss", func() {
		loss, grad = nn.MaskedCrossEntropy(logits, ds.Labels, ds.TrainMask)
		st = gnn.EpochStats{
			Epoch: s.next, Loss: loss,
			TrainAcc: nn.Accuracy(logits, ds.Labels, ds.TrainMask),
			ValAcc:   nn.Accuracy(logits, ds.Labels, ds.ValMask),
		}
	})
	tr.in("backward", func() {
		s.model.ZeroGrad()
		s.model.Backward(grad)
	})
	tr.in("opt", func() { s.opt.Step(s.model.Params()) })
	tr.end(id)

	if c := s.j.cluster; c != nil {
		levels := c.ScheduleLevels() // nil without a scheduler
		for i := range s.levels {
			if levels[i] != s.levels[i] {
				s.rungChanges++
			}
		}
		s.levels = levels
	}
	s.epochs = append(s.epochs, st)
	if st.ValAcc > s.best {
		s.best, s.sinceBest = st.ValAcc, 0
	} else {
		s.sinceBest++
	}
	s.next++
	return st, nil
}

func (s *tracedStepper) state() *gnn.TrainerState {
	return &gnn.TrainerState{
		NextEpoch: s.next, SinceBest: s.sinceBest, BestValAcc: s.best,
		Epochs: append([]gnn.EpochStats(nil), s.epochs...),
		Opt:    s.opt.State(s.model.Params()),
	}
}

func (s *tracedStepper) finish() (acc float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("traced final evaluation: %v", r)
		}
	}()
	id := s.tr.begin("eval")
	defer s.tr.end(id)
	s.model.StartEvalEpoch(s.next)
	final := s.model.Forward(s.j.ds.Features)
	return nn.Accuracy(final, s.j.ds.Labels, s.j.ds.TestMask), nil
}

// trainTraced runs the same budget with bench's own epoch loop and a span
// at every layer boundary.
func (j *job) trainTraced(tr *tracer) (*training, error) {
	model := j.newModel(&tracedAgg{inner: j.agg, tr: tr})
	stepper := &tracedStepper{j: j, model: model, opt: nn.NewAdam(learnRate), tr: tr}
	id := tr.begin("train")
	out, err := j.train(model, stepper, tr)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.RungChanges = stepper.rungChanges
	return out, nil
}

// lossesMatch reports the first epoch at which two loss sequences differ by
// more than tol relative (tol 0 demands bit equality), or -1.
func lossesMatch(a, b []float64, tol float64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] == b[i] {
			continue
		}
		if tol == 0 || math.Abs(a[i]-b[i]) > tol*math.Max(math.Abs(a[i]), math.Abs(b[i])) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
