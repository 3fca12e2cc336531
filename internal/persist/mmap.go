package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"unsafe"

	"scgnn/internal/tensor"
)

// MappedMatrix is a file-backed float64 matrix: the ROADMAP's out-of-core
// feature store. On unix builds the file is mmap'd shared, so the matrix's
// rows live in the page cache instead of the Go heap — a million-node 32-dim
// feature matrix (~256 MB) stops counting against the planner's footprint,
// and cold rows fault in on access with no explicit I/O. On platforms
// without mmap the same type degrades to an in-heap buffer flushed to the
// file on Flush/Close, so callers never branch on OS.
//
// The tensor.Matrix view returned by Matrix is plain float64
// storage: every consumer (datasets generation, gnn training, the worker
// halo exchange) reads and writes it exactly as an in-heap matrix, and the
// values are bit-identical either way — the mapping chooses where the bytes
// live, never what they are (TestMappedDatasetBitIdentical pins this through
// a full GCN training run).
type MappedMatrix struct {
	mat  *tensor.Matrix
	f    *os.File
	raw  []byte // live mapping; nil in the in-heap fallback mode
	path string
}

// CreateMappedMatrix creates (truncating) a file sized for rows×cols float64s
// and returns the matrix view over its mapping. The caller owns the file and
// must Close the matrix before removing it.
func CreateMappedMatrix(path string, rows, cols int) (*MappedMatrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("persist: negative mapped-matrix dimensions %dx%d", rows, cols)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("persist: create mapped matrix: %w", err)
	}
	size := rows * cols * 8
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: size mapped matrix: %w", err)
	}
	return wrapMapped(f, path, rows, cols)
}

// wrapMapped builds the matrix view over f: an mmap when the platform
// provides one, the in-heap fallback (loading the file's contents) otherwise.
func wrapMapped(f *os.File, path string, rows, cols int) (*MappedMatrix, error) {
	m := &MappedMatrix{f: f, path: path}
	n := rows * cols
	if n == 0 {
		m.mat = &tensor.Matrix{Rows: rows, Cols: cols}
		return m, nil
	}
	raw, err := mapFile(f, n*8)
	switch {
	case err == nil:
		m.raw = raw
		m.mat = &tensor.Matrix{
			Rows: rows, Cols: cols,
			Data: unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n),
		}
	case err == errMmapUnsupported:
		m.mat = &tensor.Matrix{Rows: rows, Cols: cols, Data: make([]float64, n)}
		if err := readFloats(f, m.mat.Data); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: load fallback matrix: %w", err)
		}
	default:
		f.Close()
		return nil, fmt.Errorf("persist: map matrix: %w", err)
	}
	return m, nil
}

// Matrix returns the full matrix view. The view is invalid after Close.
func (m *MappedMatrix) Matrix() *tensor.Matrix { return m.mat }

// Path returns the backing file's path.
func (m *MappedMatrix) Path() string { return m.path }

// Flush forces written rows to the backing file (msync-equivalent on mapped
// builds, a full rewrite in the fallback).
func (m *MappedMatrix) Flush() error {
	if m.f == nil {
		return fmt.Errorf("persist: flush of closed mapped matrix")
	}
	if m.raw == nil && len(m.mat.Data) > 0 {
		if err := writeFloats(m.f, m.mat.Data); err != nil {
			return fmt.Errorf("persist: flush fallback matrix: %w", err)
		}
	}
	// On mapped builds the page cache already holds the shared-mapping
	// writes; fsync pushes the file's dirty pages to stable storage.
	return m.f.Sync()
}

// Close flushes, unmaps, and closes the backing file. The matrix view must
// not be touched afterwards — on mapped builds the pages are gone. Close is
// idempotent.
func (m *MappedMatrix) Close() error {
	if m.f == nil {
		return nil
	}
	err := m.Flush()
	if m.raw != nil {
		if uerr := unmapFile(m.raw); err == nil {
			err = uerr
		}
		m.raw = nil
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.f = nil
	m.mat = &tensor.Matrix{} // fail fast on use-after-close in fallback mode too
	return err
}

// readFloats/writeFloats are the fallback-mode file codec (native-endian
// float64s, matching the mapped layout on the same machine).
func readFloats(f *os.File, dst []float64) error {
	b := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*8)
	_, err := f.ReadAt(b, 0)
	return err
}

func writeFloats(f *os.File, src []float64) error {
	b := unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), len(src)*8)
	_, err := f.WriteAt(b, 0)
	return err
}

// MappedAlloc is a feature-storage allocator (the datasets.Spec.AllocFeatures
// shape) that backs every matrix it hands out with an mmap file under dir.
// Close unmaps and deletes all of them — call it when the dataset's life
// ends. Allocation failures fall back to the in-heap tensor.New (generation
// must not die because a scratch dir filled up); Err reports the first one.
type MappedAlloc struct {
	dir string
	mu  sync.Mutex
	ms  []*MappedMatrix
	err error
	n   int
}

// NewMappedAlloc returns an allocator writing matrix files under dir.
func NewMappedAlloc(dir string) *MappedAlloc { return &MappedAlloc{dir: dir} }

// Alloc is the datasets.Spec.AllocFeatures hook.
func (a *MappedAlloc) Alloc(rows, cols int) *tensor.Matrix {
	a.mu.Lock()
	defer a.mu.Unlock()
	path := filepath.Join(a.dir, fmt.Sprintf("feat-%d-%dx%d.f64", a.n, rows, cols))
	a.n++
	m, err := CreateMappedMatrix(path, rows, cols)
	if err != nil {
		if a.err == nil {
			a.err = err
		}
		return tensor.New(rows, cols)
	}
	a.ms = append(a.ms, m)
	return m.Matrix()
}

// Err returns the first allocation failure (nil when every matrix mapped).
func (a *MappedAlloc) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Close unmaps and removes every matrix this allocator created. Matrices
// handed out by Alloc are invalid afterwards.
func (a *MappedAlloc) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var first error
	for _, m := range a.ms {
		path := m.Path()
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
		if err := os.Remove(path); err != nil && first == nil {
			first = err
		}
	}
	a.ms = nil
	return first
}
