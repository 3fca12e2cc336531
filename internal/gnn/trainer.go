package gnn

import (
	"fmt"

	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

// TrainConfig controls a full-batch training run. NewTrainer uses it as
// given: the defaults are dist.RunConfig's.
type TrainConfig struct {
	Epochs int
	LR     float64
	// Patience stops early when validation accuracy hasn't improved for
	// this many epochs (0 disables early stopping).
	Patience int
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch    int
	Loss     float64
	TrainAcc float64
	ValAcc   float64
}

// TrainResult summarizes a run.
type TrainResult struct {
	Epochs  []EpochStats
	TestAcc float64
	// BestValAcc is the best validation accuracy observed.
	BestValAcc float64
}

// Trainer runs full-batch supervised training of a model (paper Fig. 8,
// right side): forward over all nodes, masked loss, backward, optimizer step,
// stepped one epoch at a time by the caller, with the loop bookkeeping
// (epoch counter, patience, per-epoch stats, optimizer moments) exported as
// a serializable TrainerState. dist.Train drives it on every runtime; the
// fleet coordinator checkpoints a run at any epoch boundary and resumes it
// loss-for-loss identically after a crash.
type Trainer struct {
	Model  Model
	X      *tensor.Matrix
	Labels []int

	TrainMask, ValMask, TestMask []bool

	Cfg TrainConfig
	Opt *nn.Adam

	res       *TrainResult
	sinceBest int
	next      int // next epoch index to run

	// Retained between epochs so a steady-state RunEpoch allocates no
	// node-sized buffer: the loss gradient and the per-row predictions.
	loss nn.CrossEntropy
	pred []int
}

// NewTrainer builds the optimizer, leaving the trainer positioned before
// epoch 0.
func NewTrainer(model Model, x *tensor.Matrix, labels []int, trainMask, valMask, testMask []bool, cfg TrainConfig) *Trainer {
	return &Trainer{
		Model: model, X: x, Labels: labels,
		TrainMask: trainMask, ValMask: valMask, TestMask: testMask,
		Cfg: cfg, Opt: nn.NewAdam(cfg.LR),
		res: &TrainResult{},
	}
}

// NextEpoch returns the index of the epoch the next RunEpoch call executes.
func (t *Trainer) NextEpoch() int { return t.next }

// Done reports whether the training loop has finished — either the epoch
// budget is spent or patience tripped. Finish runs the evaluation pass.
func (t *Trainer) Done() bool {
	if t.next >= t.Cfg.Epochs {
		return true
	}
	return t.Cfg.Patience > 0 && t.sinceBest >= t.Cfg.Patience
}

// recoverToError converts a panic in the model/aggregator stack into an
// error so a networked node losing a peer mid-forward surfaces as a typed
// failure at the coordinator instead of killing the process.
func recoverToError(what string, epoch int, err *error) {
	if r := recover(); r != nil {
		if e, ok := r.(error); ok {
			*err = fmt.Errorf("gnn: %s %d: %w", what, epoch, e)
		} else {
			*err = fmt.Errorf("gnn: %s %d panicked: %v", what, epoch, r)
		}
	}
}

// RunEpoch executes one training epoch — forward, masked loss, backward,
// optimizer step — and records its stats. Panics out of the model or
// aggregator (e.g. a transport-backed aggregator whose peer died) are
// recovered into errors; the epoch is then considered not to have happened
// and the trainer must be restored from a checkpoint before continuing.
func (t *Trainer) RunEpoch() (st EpochStats, err error) {
	if t.Done() {
		return EpochStats{}, fmt.Errorf("gnn: RunEpoch after training finished (epoch %d)", t.next)
	}
	e := t.next
	defer recoverToError("epoch", e, &err)

	if em, ok := t.Model.(EpochMarker); ok {
		em.StartEpoch(e)
	}
	logits := t.Model.Forward(t.X)
	t.pred = tensor.ArgmaxRowsInto(t.pred, logits)
	loss := t.loss.LossInPlace(logits, t.Labels, t.TrainMask) // logits → ∂L/∂logits
	t.Model.ZeroGrad()
	t.Model.Backward(logits)
	t.Opt.Step(t.Model.Params())

	st = EpochStats{
		Epoch:    e,
		Loss:     loss,
		TrainAcc: nn.AccuracyOf(t.pred, t.Labels, t.TrainMask),
		ValAcc:   nn.AccuracyOf(t.pred, t.Labels, t.ValMask),
	}
	t.res.Epochs = append(t.res.Epochs, st)
	if st.ValAcc > t.res.BestValAcc {
		t.res.BestValAcc = st.ValAcc
		t.sinceBest = 0
	} else {
		t.sinceBest++
	}
	t.next = e + 1
	return st, nil
}

// Finish runs the final measurement pass and returns the completed result.
// It may be called whether or not the epoch loop ran to completion
// (dist.Train calls it after Done; a caller stopping early may call it
// directly). The pass is marked with the actual next epoch index so
// delayed-transmission aggregators compute fresh values instead of
// replaying stale caches.
func (t *Trainer) Finish() (res *TrainResult, err error) {
	defer recoverToError("final eval at epoch", len(t.res.Epochs), &err)
	if em, ok := t.Model.(EvalMarker); ok {
		em.StartEvalEpoch(len(t.res.Epochs))
	}
	final := t.Model.Forward(t.X)
	t.res.TestAcc = nn.Accuracy(final, t.Labels, t.TestMask)
	return t.res, nil
}

// TrainerState is the serializable loop bookkeeping: everything Trainer
// holds besides the model parameters (checkpointed beside it, as
// net.TrainingCheckpoint does) and the aggregator's stream state (owned by
// the runtime that built the aggregator).
type TrainerState struct {
	NextEpoch  int
	SinceBest  int
	BestValAcc float64
	Epochs     []EpochStats
	Opt        *nn.AdamState
}

// State deep-copies the loop bookkeeping and optimizer moments.
func (t *Trainer) State() *TrainerState {
	return &TrainerState{
		NextEpoch:  t.next,
		SinceBest:  t.sinceBest,
		BestValAcc: t.res.BestValAcc,
		Epochs:     append([]EpochStats(nil), t.res.Epochs...),
		Opt:        t.Opt.State(t.Model.Params()),
	}
}

// Restore rewinds the trainer to a captured state. The caller must restore
// the model parameters to the matching checkpoint separately; a resumed run
// then reproduces the uninterrupted run's remaining epochs exactly.
func (t *Trainer) Restore(st *TrainerState) error {
	if st == nil {
		return fmt.Errorf("gnn: nil trainer state")
	}
	if st.NextEpoch != len(st.Epochs) {
		return fmt.Errorf("gnn: trainer state at epoch %d carries %d epoch records", st.NextEpoch, len(st.Epochs))
	}
	if err := t.Opt.SetState(t.Model.Params(), st.Opt); err != nil {
		return err
	}
	t.next = st.NextEpoch
	t.sinceBest = st.SinceBest
	t.res = &TrainResult{
		Epochs:     append([]EpochStats(nil), st.Epochs...),
		BestValAcc: st.BestValAcc,
	}
	return nil
}
