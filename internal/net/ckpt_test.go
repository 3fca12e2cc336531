package net

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"scgnn/internal/compress"
	"scgnn/internal/dist"
	"scgnn/internal/exchange"
	"scgnn/internal/gnn"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
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
// truncation wrap ErrCorruptCheckpoint, a file taken on another
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
	if err := resume(corrupt); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("bit flip: got %v, want ErrCorruptCheckpoint", err)
	}
	// Truncation: body shorter than the header promises.
	short := filepath.Join(dir, "short.ck")
	if err := os.WriteFile(short, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(short); !errors.Is(err, ErrCorruptCheckpoint) {
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

// TestRestoreParamsRefusesShortData: a 2×3 parameter given 2 values is
// refused, not restored over 2 of its 6 values.
func TestRestoreParamsRefusesShortData(t *testing.T) {
	params := []nn.Param{{Name: "W", Value: tensor.New(2, 3)}}
	st := []ParamState{{Name: "W", Rows: 2, Cols: 3, Data: []float64{1, 2}}}
	if err := restoreParams(st, params); err == nil {
		t.Fatal("short parameter data restored")
	}
	st[0].Data = []float64{1, 2, 3, 4, 5, 6}
	if err := restoreParams(st, params); err != nil || params[0].Value.Data[5] != 6 {
		t.Fatalf("full parameter data: %v, values %v", err, params[0].Value.Data)
	}
}

// demoPeerState is a peer state with every field set: a stateless and a
// stateful pair, two error-feedback residuals (keys out of order in the
// map's literal), rung levels, and an unfilled and a filled delay slot of
// four rows that lists a row of values, a −0.0 one and another (row 1, +0,
// is left out).
func demoPeerState() *worker.PeerState {
	return &worker.PeerState{
		NParts: 2,
		Pairs: []exchange.PairStreamState{{}, {
			EF: map[int64][]float64{
				compress.RoundUnitKey(1, 3): {0.5, -1},
				compress.RoundUnitKey(0, 2): {0.25, 2},
			},
			AdaptiveBitsSum: 24, AdaptiveCalls: 3, EFCorrected: 5,
		}, {}, {}},
		Levels: []int32{0, 1, 2, 0},
		Delay: []*worker.DelaySlot{nil, {Rows: 4, Cols: 2, Index: []int32{0, 2, 3},
			Data: []float64{1, 2, 0, math.Copysign(0, -1), 3, 4}}},
	}
}

// demoCheckpoint is a training checkpoint with every field set.
func demoCheckpoint() *TrainingCheckpoint {
	return &TrainingCheckpoint{
		Epoch: 1, Part: []int{0, 1, 1, 0},
		Params: []ParamState{{Name: "W0", Rows: 2, Cols: 1, Data: []float64{0.5, -0.5}}},
		Trainer: &gnn.TrainerState{
			NextEpoch: 1, BestValAcc: 0.75,
			Epochs: []gnn.EpochStats{{Epoch: 0, Loss: 1.5, TrainAcc: 0.5, ValAcc: 0.75}},
			Opt:    &nn.AdamState{T: 1, M: [][]float64{{0.1, 0.2}}, V: [][]float64{{0.01, 0.04}}},
		},
		Nodes: [][]byte{encodePeerState(demoPeerState()), {0xde, 0xad}},
	}
}

// TestCheckpointRoundtrip: a checkpoint file and a peer-state blob decode to
// the state they were encoded from.
func TestCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	if err := demoCheckpoint().Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrainingCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, demoCheckpoint()) {
		t.Fatalf("checkpoint roundtrip: %+v", got)
	}
	st, err := decodePeerState(got.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, demoPeerState()) {
		t.Fatalf("peer state roundtrip: %+v", st)
	}
	// DeepEqual takes −0.0 for +0; the written row keeps its sign bit.
	if !math.Signbit(st.Delay[1].Data[3]) {
		t.Fatal("peer state roundtrip lost the −0.0 of a delay row")
	}
}

// TestCheckpointOverwriteAtomic: a second Save replaces the file and leaves
// no temp file behind.
func TestCheckpointOverwriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	next := demoCheckpoint()
	next.Epoch = 2
	for _, ck := range []*TrainingCheckpoint{demoCheckpoint(), next} {
		if err := ck.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadTrainingCheckpoint(path)
	if err != nil || got.Epoch != 2 {
		t.Fatalf("after overwrite: %v, err %v; want epoch 2", got, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after save, want 1", len(entries))
	}
}

// TestCheckpointCorruption: every damage mode of the envelope or body —
// truncated header, truncated body, flipped payload bit, bad magic, unknown
// version, the gob-bodied version 1, the dense-delay version 2, version 3
// with sampler stream positions and indexed delay rows, version 4 with
// residuals keyed by cross arc, a length
// field that disagrees, a bad CRC, a body of the other state type — surfaces
// as a wrapped ErrCorruptCheckpoint from both decoders, never a clean load or
// a panic.
func TestCheckpointCorruption(t *testing.T) {
	buf := seal(demoCheckpoint().encodeInto)
	edit := func(f func(c []byte)) []byte {
		c := append([]byte(nil), buf...)
		f(c)
		return c
	}
	for name, b := range map[string][]byte{
		"truncated-header": buf[:10],
		"truncated-body":   buf[:len(buf)-5],
		"flipped-bit":      edit(func(c []byte) { c[len(c)-1] ^= 0x40 }),
		"bad-magic":        edit(func(c []byte) { c[0] = 'X' }),
		"bad-version":      edit(func(c []byte) { c[4] = 99 }),
		"version-1":        edit(func(c []byte) { c[4] = 1 }),
		"version-2":        edit(func(c []byte) { c[4] = 2 }),
		"version-3":        edit(func(c []byte) { c[4] = 3 }),
		"version-4":        edit(func(c []byte) { c[4] = 4 }),
		"wrong-length":     edit(func(c []byte) { c[5]++ }),
		"bad-crc":          edit(func(c []byte) { c[13] ^= 1 }),
		"empty":            nil,
		"wrong-body-type":  encodePeerState(demoPeerState()),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeTrainingCheckpoint(b); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("checkpoint: err = %v, want ErrCorruptCheckpoint", err)
			}
			if name == "wrong-body-type" {
				b = buf
			}
			if _, err := decodePeerState(b); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("peer state: err = %v, want ErrCorruptCheckpoint", err)
			}
		})
	}
}

// TestCheckpointMissingFile: a missing file is os.ErrNotExist, not
// corruption.
func TestCheckpointMissingFile(t *testing.T) {
	_, err := LoadTrainingCheckpoint(filepath.Join(t.TempDir(), "absent"))
	if !errors.Is(err, os.ErrNotExist) || errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

// TestPeerStateEncodedForm pins peer state blobs — what a State frame
// carries — to their recorded bytes: a fresh peer of a stateless and of a
// fully stateful configuration, and node 1 of a delay-lane fleet after one
// epoch, whose filled slots list their rows by bitmap. Recorded again at
// format version 4 (no sampler stream positions; the delay rows' bitmap),
// and once more at version 5 (a baseline pair's residual keys name halo
// stars), where only the version byte moved.
func TestPeerStateEncodedForm(t *testing.T) {
	d, part, _ := testGraph(t, 3)
	fresh := func(cfg exchange.Config) []byte {
		peer, err := worker.NewPeer(d.Graph, part, 3, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encodePeerState(peer.State())
	}
	afterEpoch := func(cfg exchange.Config) []byte {
		tc := startCluster(t, 3, quickNodeOpts(), quickCoordOpts())
		defer tc.coord.Shutdown()
		if err := tc.coord.Setup(d.Graph, part, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := runEpoch(tc, 0, randMat(d.NumNodes(), 4, 91), randMat(d.NumNodes(), 3, 92)); err != nil {
			t.Fatal(err)
		}
		blobs, err := tc.coord.CollectStates()
		if err != nil {
			t.Fatal(err)
		}
		return blobs[1]
	}
	stateful := exchange.Config{SampleRate: 0.5, QuantBits: 4, ErrorFeedback: true, DelayPeriod: 2, Seed: 3}
	for _, tc := range []struct {
		name string
		blob []byte
		size int
		sum  string
	}{
		{"fresh semantic", fresh(exchange.Config{Semantic: true}), 37, "bc5068cef49a83e3cca5886b58bde4a5e6b748b7b963161d884fe50fa06f3f48"},
		{"fresh " + stateful.MethodName(), fresh(stateful), 289, "1b3111686c71bc79542116eee3e1c78750f7406de69b1a657da049c58c0f4f3f"},
		{"delay2 after an epoch", afterEpoch(exchange.Config{DelayPeriod: 2, Seed: 3}), 2531, "f2570efc4b1dc2d1db88c6e9f4b37118d12f0b6f4daabafd76d7f40b18cc75be"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.blob)); len(tc.blob) != tc.size || got != tc.sum {
			t.Errorf("%s: %d bytes, sha256 %s; recorded %d, %s", tc.name, len(tc.blob), got, tc.size, tc.sum)
		}
	}
}

// TestDelayBitmap: a delay slot's listed rows ride a bitmap, so a slot costs
// at most its dense values plus Rows/8 bytes. On a shard where nearly every
// own node has an inbound cross arc (testGraph at 3 parts, delay 2, one epoch
// in) every node's blob is no larger than with its slots written dense, where
// indexing each listed row by 4 bytes wrote more (2 751 / 2 879 / 3 327 B
// against 2 695 / 2 695 / 3 199 B). A bitmap listing a row at or past the row
// count, or cut short, is refused typed.
func TestDelayBitmap(t *testing.T) {
	d, part, _ := testGraph(t, 3)
	tc := startCluster(t, 3, quickNodeOpts(), quickCoordOpts())
	defer tc.coord.Shutdown()
	if err := tc.coord.Setup(d.Graph, part, exchange.Config{DelayPeriod: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := runEpoch(tc, 0, randMat(d.NumNodes(), 4, 91), randMat(d.NumNodes(), 3, 92)); err != nil {
		t.Fatal(err)
	}
	blobs, err := tc.coord.CollectStates()
	if err != nil {
		t.Fatal(err)
	}
	for node, blob := range blobs {
		st, err := decodePeerState(blob)
		if err != nil {
			t.Fatal(err)
		}
		// The dense recount: each filled slot's bitmap and listed values
		// replaced by all Rows × Cols values.
		dense := len(blob)
		for _, s := range st.Delay {
			if s != nil {
				dense += 8*s.Rows*s.Cols - (s.Rows+7)/8 - 8*len(s.Data)
			}
		}
		if len(blob) > dense {
			t.Errorf("node %d: %d-byte blob, %d B with its delay slots dense", node, len(blob), dense)
		}
		t.Logf("node %d: %d B, %d B dense", node, len(blob), dense)
	}

	slot := func(rows int, index []int32) []byte {
		return encodePeerState(&worker.PeerState{NParts: 1, Delay: []*worker.DelaySlot{{
			Rows: rows, Cols: 1, Index: index, Data: make([]float64, len(index))}}})
	}
	// The bitmap is the byte after the 29 of NParts, the empty pair and level
	// lists, the slot count and flag, rows and cols.
	past := append(slot(3, []int32{0, 2}), make([]byte, 8)...)
	past[ckHeaderLen+29] |= 1 << 3
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"bit past the rows": {past[ckHeaderLen:], "past the row count"},
		"truncated bitmap":  {slot(20, []int32{19})[ckHeaderLen : ckHeaderLen+31], "truncated"},
	} {
		if _, err := decodePeerState(seal(func(w *cwriter) { w.b = append(w.b, tc.body...) })); !errors.Is(err, ErrCorruptCheckpoint) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want ErrCorruptCheckpoint naming %q", name, err, tc.want)
		}
	}
}

// TestOversizedDelayStateFailsAtCollect: a node whose delay slots hold more
// values than a restore accepts refuses its State request, so the checkpoint
// fails when it is saved, not when it is resumed; and the decoder refuses the
// state under the same bound. The bound is lowered to fit a test fleet.
func TestOversizedDelayStateFailsAtCollect(t *testing.T) {
	d, part, _ := testGraph(t, 3)
	tc := startCluster(t, 3, quickNodeOpts(), quickCoordOpts())
	defer tc.coord.Shutdown()
	if err := tc.coord.Setup(d.Graph, part, exchange.Config{DelayPeriod: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := runEpoch(tc, 0, randMat(d.NumNodes(), 4, 91), randMat(d.NumNodes(), 3, 92)); err != nil {
		t.Fatal(err)
	}
	blobs, err := tc.coord.CollectStates()
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodePeerState(blobs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer func(limit int) { maxDelayValues = limit }(maxDelayValues)
	maxDelayValues = delayValues(st) - 1
	if _, err := tc.coord.CollectStates(); !errors.Is(err, ErrRemote) {
		t.Fatalf("collect over the delay bound: %v, want ErrRemote", err)
	}
	if _, err := decodePeerState(blobs[1]); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("decode over the delay bound: %v, want ErrCorruptCheckpoint", err)
	}
}

// TestPeerStateDecodeAllocatesByBytes: a short blob declaring a delay slot
// as large as the bound allows decodes without committing the slot's dense
// size; Restore, which knows the shard's rows, refuses it before building it.
func TestPeerStateDecodeAllocatesByBytes(t *testing.T) {
	blob := encodePeerState(&worker.PeerState{NParts: 3,
		Delay: []*worker.DelaySlot{{Rows: maxDelayValues, Cols: 1}}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := decodePeerState(blob)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a %d-byte blob allocated %d bytes", len(blob), grew)
	}
	d, part, _ := testGraph(t, 3)
	peer, err := worker.NewPeer(d.Graph, part, 3, 1, exchange.Config{DelayPeriod: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.Restore(st); !errors.Is(err, worker.ErrBadState) {
		t.Fatalf("restore of a slot of another row count: %v, want ErrBadState", err)
	}
}
