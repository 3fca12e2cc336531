package gnn

import (
	"scgnn/internal/tensor"
)

// TrainConfig controls a full-batch training run.
type TrainConfig struct {
	Epochs int
	LR     float64 // default 0.01
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

// Train runs full-batch supervised training of model on (x, labels) with the
// given masks, evaluating test accuracy at the end. It mirrors the standard
// full-graph GNN training loop (paper Fig. 8 right side): forward over all
// nodes, masked loss, backward, optimizer step — every epoch. It is a
// single-shot wrapper over Trainer; callers that need checkpoint/resume or
// per-epoch control drive the Trainer directly.
func Train(model Model, x *tensor.Matrix, labels []int, trainMask, valMask, testMask []bool, cfg TrainConfig) *TrainResult {
	t := NewTrainer(model, x, labels, trainMask, valMask, testMask, cfg)
	for !t.Done() {
		if _, err := t.RunEpoch(); err != nil {
			panic(err)
		}
	}
	res, err := t.Finish()
	if err != nil {
		panic(err)
	}
	return res
}
