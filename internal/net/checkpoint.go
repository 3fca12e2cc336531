package net

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"scgnn/internal/gnn"
	"scgnn/internal/nn"
	"scgnn/internal/persist"
)

// TrainingCheckpoint is the coordinator's single crash-recovery artifact,
// captured at an epoch boundary: model parameters, the trainer's optimizer
// and early-stopping state, the partition vector in force, and every node's
// peer-state blob (each itself a CRC-validated persist container). One file
// holds everything needed to rewind the whole fleet — the coordinator
// restores its own model and trainer locally and ships each node its blob
// via RestoreStates.
type TrainingCheckpoint struct {
	Epoch   int
	Part    []int
	Params  []ParamState
	Trainer *gnn.TrainerState
	Nodes   [][]byte
}

// ParamState is one named parameter tensor's checkpointed values.
type ParamState struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// SaveCheckpoint writes the fleet's run at the trainer's next epoch boundary
// to path: model and trainer from this process, every node's peer state
// collected over the control channel. It is the one writer of the file
// (dist.Checkpointer; dist.Train calls it before every epoch).
func (c *Coordinator) SaveCheckpoint(path string, model gnn.Model, t *gnn.Trainer) error {
	blobs, err := c.CollectStates()
	if err != nil {
		return err
	}
	ck := &TrainingCheckpoint{
		Epoch: t.NextEpoch(), Part: c.Part(),
		Params: CaptureParams(model.Params()), Trainer: t.State(), Nodes: blobs,
	}
	return ck.Save(path)
}

// ResumeCheckpoint rewinds model, trainer and every node to the checkpoint
// at path; with no file there it changes nothing. It is the one reader of
// the file (dist.Checkpointer). The checkpoint must have been taken on the
// partition now in force.
func (c *Coordinator) ResumeCheckpoint(path string, model gnn.Model, t *gnn.Trainer) error {
	ck, err := LoadTrainingCheckpoint(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("net: checkpoint %s: %w", path, err)
	}
	if !slices.Equal(ck.Part, c.part) {
		return fmt.Errorf("net: checkpoint %s was taken on another partition", path)
	}
	if err := restoreParams(ck.Params, model.Params()); err != nil {
		return err
	}
	if err := t.Restore(ck.Trainer); err != nil {
		return err
	}
	return c.RestoreStates(ck.Nodes)
}

// CaptureParams deep-copies a model's parameters (gradients excluded).
func CaptureParams(params []nn.Param) []ParamState {
	out := make([]ParamState, len(params))
	for i, p := range params {
		out[i] = ParamState{
			Name: p.Name, Rows: p.Value.Rows, Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		}
	}
	return out
}

// restoreParams writes checkpointed values back into a model's parameters,
// validating names and shapes positionally (Model.Params order is stable).
func restoreParams(st []ParamState, params []nn.Param) error {
	if len(st) != len(params) {
		return fmt.Errorf("net: checkpoint has %d tensors, model has %d", len(st), len(params))
	}
	for i, p := range params {
		s := st[i]
		if s.Name != p.Name || s.Rows != p.Value.Rows || s.Cols != p.Value.Cols {
			return fmt.Errorf("net: checkpoint tensor %d is %s %dx%d, model wants %s %dx%d",
				i, s.Name, s.Rows, s.Cols, p.Name, p.Value.Rows, p.Value.Cols)
		}
		copy(p.Value.Data, s.Data)
	}
	return nil
}

// Save writes the checkpoint atomically at path.
func (c *TrainingCheckpoint) Save(path string) error {
	return persist.SaveCheckpoint(path, c)
}

// LoadTrainingCheckpoint reads a checkpoint written by Save. Damage
// surfaces as persist.ErrCorruptCheckpoint; a missing file as os.ErrNotExist.
func LoadTrainingCheckpoint(path string) (*TrainingCheckpoint, error) {
	c := new(TrainingCheckpoint)
	if err := persist.LoadCheckpoint(path, c); err != nil {
		return nil, err
	}
	return c, nil
}
