package net

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scgnn/internal/dist"
	"scgnn/internal/gnn"
	"scgnn/internal/persist"
)

// trainRun is one socket-backed training run: cluster, GCN over the
// coordinator as aggregator, and a stepwise trainer.
type trainRun struct {
	tc      *testCluster
	model   *gnn.GCN
	trainer *gnn.Trainer
}

func newTrainRun(t *testing.T, nparts int, cfg dist.Config, tcfg gnn.TrainConfig) *trainRun {
	t.Helper()
	d, part, _ := testGraph(t, nparts)
	tc := startCluster(t, nparts, quickNodeOpts(), quickCoordOpts())
	if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
		t.Fatalf("setup: %v", err)
	}
	model := gnn.NewGCN(tc.coord, []int{d.FeatureDim(), 8, d.NumClasses}, rand.New(rand.NewSource(99)))
	trainer := gnn.NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask, tcfg)
	return &trainRun{tc: tc, model: model, trainer: trainer}
}

// save checkpoints the whole fleet at the current epoch boundary into path,
// through the coordinator's product path.
func (r *trainRun) save(t *testing.T, path string) {
	t.Helper()
	if err := r.tc.coord.SaveCheckpoint(path, r.model, r.trainer); err != nil {
		t.Fatalf("save checkpoint: %v", err)
	}
}

// restore rewinds the run to the checkpoint at path — model parameters,
// trainer bookkeeping, and every node's stream state — through the
// coordinator's product path.
func (r *trainRun) restore(t *testing.T, path string) {
	t.Helper()
	if err := r.tc.coord.ResumeCheckpoint(path, r.model, r.trainer); err != nil {
		t.Fatalf("resume checkpoint: %v", err)
	}
}

// TestCheckpointResumeLossForLoss is the checkpoint-roundtrip satellite:
// training checkpointed at an epoch boundary, shipped through the wire
// format to a file, and resumed on a *fresh* fleet of nodes must reproduce
// the uninterrupted run's remaining epochs loss-for-loss and land on the
// identical TestAcc. Covered per compression family, since each keeps
// different stream state (quantizer RNG, error-feedback residuals, delay
// caches).
func TestCheckpointResumeLossForLoss(t *testing.T) {
	const (
		nparts = 3
		ckAt   = 4 // checkpoint boundary
	)
	tcfg := gnn.TrainConfig{Epochs: 8, LR: 0.02}
	cases := []struct {
		name string
		cfg  dist.Config
	}{
		{"vanilla", dist.Config{Seed: 6}},
		{"quant8_ef", dist.Config{QuantBits: 8, ErrorFeedback: true, Seed: 6}},
		{"delay3", dist.Config{DelayPeriod: 3, Seed: 6}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(shortTempDir(t), "train.ck")

			// Uninterrupted run, checkpointing at the boundary.
			ref := newTrainRun(t, nparts, tt.cfg, tcfg)
			for !ref.trainer.Done() {
				if ref.trainer.NextEpoch() == ckAt {
					ref.save(t, path)
				}
				if _, err := ref.trainer.RunEpoch(); err != nil {
					t.Fatalf("epoch %d: %v", ref.trainer.NextEpoch(), err)
				}
			}
			want, err := ref.trainer.Finish()
			if err != nil {
				t.Fatalf("finish: %v", err)
			}
			ref.tc.coord.Shutdown()

			// Fresh fleet, fresh model (different init is fine — the
			// checkpoint overwrites it), resumed from the file.
			ck, err := LoadTrainingCheckpoint(path)
			if err != nil {
				t.Fatalf("load checkpoint: %v", err)
			}
			if ck.Epoch != ckAt {
				t.Fatalf("checkpoint at epoch %d, want %d", ck.Epoch, ckAt)
			}
			res := newTrainRun(t, nparts, tt.cfg, tcfg)
			res.restore(t, path)
			if res.trainer.NextEpoch() != ckAt {
				t.Fatalf("resumed trainer at epoch %d, want %d", res.trainer.NextEpoch(), ckAt)
			}
			for !res.trainer.Done() {
				if _, err := res.trainer.RunEpoch(); err != nil {
					t.Fatalf("resumed epoch %d: %v", res.trainer.NextEpoch(), err)
				}
			}
			got, err := res.trainer.Finish()
			if err != nil {
				t.Fatalf("resumed finish: %v", err)
			}

			if len(got.Epochs) != len(want.Epochs) {
				t.Fatalf("resumed run has %d epochs, want %d", len(got.Epochs), len(want.Epochs))
			}
			for e := ckAt; e < len(want.Epochs); e++ {
				w, g := want.Epochs[e], got.Epochs[e]
				if w != g {
					t.Fatalf("epoch %d: resumed %+v, uninterrupted %+v", e, g, w)
				}
			}
			if got.TestAcc != want.TestAcc || got.BestValAcc != want.BestValAcc {
				t.Fatalf("resumed TestAcc=%v BestValAcc=%v, uninterrupted TestAcc=%v BestValAcc=%v",
					got.TestAcc, got.BestValAcc, want.TestAcc, want.BestValAcc)
			}
		})
	}
}

// TestCheckpointFileDamage locks in the failure modes of the checkpoint
// file itself, through the one reader a run resumes by: corruption and
// truncation wrap persist.ErrCorruptCheckpoint, a file taken on another
// partition is refused, and a missing file (os.ErrNotExist to the loader) is
// a fresh start that changes nothing — never a silent bad restore.
func TestCheckpointFileDamage(t *testing.T) {
	const nparts = 3
	dir := shortTempDir(t)
	path := filepath.Join(dir, "damage.ck")

	run := newTrainRun(t, nparts, dist.Config{QuantBits: 8, ErrorFeedback: true, Seed: 2},
		gnn.TrainConfig{Epochs: 2, LR: 0.02})
	if _, err := run.trainer.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	run.save(t, path)
	run.restore(t, path)
	resume := func(path string) error {
		return run.tc.coord.ResumeCheckpoint(path, run.model, run.trainer)
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bit flip in the body: CRC mismatch.
	flipped := append([]byte(nil), buf...)
	flipped[len(flipped)/2] ^= 0x01
	corrupt := filepath.Join(dir, "flip.ck")
	if err := os.WriteFile(corrupt, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(corrupt); !errors.Is(err, persist.ErrCorruptCheckpoint) {
		t.Fatalf("bit flip: got %v, want ErrCorruptCheckpoint", err)
	}
	// Truncation: body shorter than the header promises.
	short := filepath.Join(dir, "short.ck")
	if err := os.WriteFile(short, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(short); !errors.Is(err, persist.ErrCorruptCheckpoint) {
		t.Fatalf("truncation: got %v, want ErrCorruptCheckpoint", err)
	}
	absent := filepath.Join(dir, "absent.ck")
	if _, err := LoadTrainingCheckpoint(absent); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got %v, want os.ErrNotExist", err)
	}
	if err := resume(absent); err != nil || run.trainer.NextEpoch() != 1 {
		t.Fatalf("missing file: resumed to epoch %d, error %v; want epoch 1 untouched", run.trainer.NextEpoch(), err)
	}
	_, _, part2 := testGraph(t, nparts)
	if _, err := run.tc.coord.Repartition(part2); err != nil {
		t.Fatal(err)
	}
	if err := resume(path); err == nil || !strings.Contains(err.Error(), "another partition") {
		t.Fatalf("checkpoint from another partition: got %v, want a refusal", err)
	}
}
