package persist

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/gnn"
	"scgnn/internal/tensor"
)

func TestMappedMatrixRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.f64")
	m, err := CreateMappedMatrix(path, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	mat := m.Matrix()
	if mat.Rows != 7 || mat.Cols != 5 || len(mat.Data) != 35 {
		t.Fatalf("mapped shape %dx%d len %d", mat.Rows, mat.Cols, len(mat.Data))
	}
	for i := range mat.Data {
		mat.Data[i] = float64(i) * 1.5
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	// The file holds the rows as native-endian float64s.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 35*8 {
		t.Fatalf("file is %d bytes, want %d", len(b), 35*8)
	}
	for i := 0; i < 35; i++ {
		if v := math.Float64frombits(binary.NativeEndian.Uint64(b[8*i:])); v != float64(i)*1.5 {
			t.Fatalf("file[%d] = %v, want %v", i, v, float64(i)*1.5)
		}
	}
}

func TestMappedMatrixShapeErrors(t *testing.T) {
	if _, err := CreateMappedMatrix(filepath.Join(t.TempDir(), "a"), -1, 3); err == nil {
		t.Fatal("negative rows accepted")
	}
}

func TestMappedMatrixEmpty(t *testing.T) {
	m, err := CreateMappedMatrix(filepath.Join(t.TempDir(), "z"), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Matrix().Rows != 0 || len(m.Matrix().Data) != 0 {
		t.Fatal("empty matrix misshaped")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMappedDatasetBitIdentical is the mmap half of the PR's oracle contract:
// a dataset generated onto mmap-backed feature storage must be bit-identical
// to the in-heap generation — same features, and a full GCN training run on
// top reaches the exact same losses and accuracies (training reads and
// writes the mapped rows like any tensor).
func TestMappedDatasetBitIdentical(t *testing.T) {
	heap, err := datasets.ByName("pubmed-sim", 7)
	if err != nil {
		t.Fatal(err)
	}
	alloc := NewMappedAlloc(t.TempDir())
	defer alloc.Close()
	mapped, err := datasets.ByNameWith("pubmed-sim", 7, alloc.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := alloc.Err(); err != nil {
		t.Fatalf("mapped allocation fell back: %v", err)
	}
	if len(mapped.Features.Data) != len(heap.Features.Data) {
		t.Fatalf("feature lengths %d vs %d", len(mapped.Features.Data), len(heap.Features.Data))
	}
	for i := range heap.Features.Data {
		if mapped.Features.Data[i] != heap.Features.Data[i] {
			t.Fatalf("features diverge at %d: %v vs %v", i, mapped.Features.Data[i], heap.Features.Data[i])
		}
	}

	train := func(d *datasets.Dataset) *gnn.TrainResult {
		rng := rand.New(rand.NewSource(3))
		model := gnn.NewGCN(gnn.NewLocalAggregator(d.Graph), []int{d.FeatureDim(), 16, d.NumClasses}, rng)
		trn := gnn.NewTrainer(model, d.Features, d.Labels, d.TrainMask, d.ValMask, d.TestMask,
			gnn.TrainConfig{Epochs: 10, LR: 0.02})
		for !trn.Done() {
			if _, err := trn.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := trn.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rh, rm := train(heap), train(mapped)
	if rh.TestAcc != rm.TestAcc {
		t.Fatalf("test accuracy diverges: %v vs %v", rh.TestAcc, rm.TestAcc)
	}
	if len(rh.Epochs) != len(rm.Epochs) {
		t.Fatalf("epoch counts diverge: %d vs %d", len(rh.Epochs), len(rm.Epochs))
	}
	for i := range rh.Epochs {
		if rh.Epochs[i].Loss != rm.Epochs[i].Loss {
			t.Fatalf("epoch %d loss diverges: %v vs %v", i, rh.Epochs[i].Loss, rm.Epochs[i].Loss)
		}
	}
}

// TestMappedAllocFallbackOnError: an unwritable dir must not kill generation
// — the allocator degrades to in-heap storage and records the error.
func TestMappedAllocFallbackOnError(t *testing.T) {
	alloc := NewMappedAlloc(filepath.Join(t.TempDir(), "does", "not", "exist"))
	defer alloc.Close()
	m := alloc.Alloc(3, 3)
	if m == nil || m.Rows != 3 {
		t.Fatal("fallback allocation missing")
	}
	if alloc.Err() == nil {
		t.Fatal("allocation failure not recorded")
	}
	var _ *tensor.Matrix = m
}
