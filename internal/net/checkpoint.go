package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"scgnn/internal/exchange"
	"scgnn/internal/gnn"
	"scgnn/internal/nn"
	"scgnn/internal/worker"
)

// TrainingCheckpoint is the coordinator's single crash-recovery artifact,
// captured at an epoch boundary: model parameters, the trainer's optimizer
// and early-stopping state, the partition vector in force, and every node's
// peer-state blob (each itself a CRC-validated envelope, see seal). One file
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
		if s.Name != p.Name || s.Rows != p.Value.Rows || s.Cols != p.Value.Cols || len(s.Data) != len(p.Value.Data) {
			return fmt.Errorf("net: checkpoint tensor %d is %s %dx%d with %d values, model wants %s %dx%d",
				i, s.Name, s.Rows, s.Cols, len(s.Data), p.Name, p.Value.Rows, p.Value.Cols)
		}
		copy(p.Value.Data, s.Data)
	}
	return nil
}

// Save writes the checkpoint atomically at path: the bytes land in a temp
// file in the same directory, are fsynced, and are renamed over the target,
// so a crash mid-write leaves the old checkpoint or none, never a torn one.
func (c *TrainingCheckpoint) Save(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("net: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(seal(c.encodeInto))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("net: write checkpoint: %w", err)
	}
	return nil
}

// LoadTrainingCheckpoint reads a checkpoint written by Save. Damage
// surfaces as ErrCorruptCheckpoint; a missing file as os.ErrNotExist.
func LoadTrainingCheckpoint(path string) (*TrainingCheckpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeTrainingCheckpoint(buf)
}

// The checkpoint envelope wraps the checkpoint file and every node's
// peer-state blob alike:
//
//	4 bytes  magic "SCCK"
//	1 byte   format version (3; older versions are refused: 1 held a gob
//	         body, 2 wrote every delay-slot value, zero rows included)
//	8 bytes  body length  (little-endian u64)
//	4 bytes  CRC32 (IEEE) of the body
//	N bytes  body, in the control codec (control.go)
//
// The CRC catches torn or bit-rotted bytes (a node killed mid-checkpoint
// truncates the body; restore must fail loudly, never load half a state);
// the magic and version catch cross-format confusion. The body decoders
// bound every count by the bytes left and reject trailing bytes, so a body
// that decodes is canonical: it re-encodes to itself.
var ckMagic = [4]byte{'S', 'C', 'C', 'K'}

const (
	ckVersion   = 3
	ckHeaderLen = 4 + 1 + 8 + 4
)

// ErrCorruptCheckpoint marks a checkpoint file or peer-state blob that
// failed validation, of its envelope or of its body; errors.Is works through
// the wrapped detail.
var ErrCorruptCheckpoint = errors.New("net: corrupt checkpoint")

// seal encodes a body with body behind the envelope header.
func seal(body func(*cwriter)) []byte {
	w := cwriter{b: make([]byte, ckHeaderLen, 4096)}
	body(&w)
	copy(w.b, ckMagic[:])
	w.b[4] = ckVersion
	binary.LittleEndian.PutUint64(w.b[5:], uint64(len(w.b)-ckHeaderLen))
	binary.LittleEndian.PutUint32(w.b[13:], crc32.ChecksumIEEE(w.b[ckHeaderLen:]))
	return w.b
}

// unseal validates buf's envelope and decodes its body with body, which must
// consume all of it. Every failure wraps ErrCorruptCheckpoint.
func unseal(buf []byte, body func(*creader)) error {
	var err error
	switch {
	case len(buf) < ckHeaderLen:
		err = fmt.Errorf("%d bytes, need at least %d (truncated header)", len(buf), ckHeaderLen)
	case !bytes.Equal(buf[:4], ckMagic[:]):
		err = fmt.Errorf("bad magic %q", buf[:4])
	case buf[4] != ckVersion:
		err = fmt.Errorf("unsupported version %d", buf[4])
	case binary.LittleEndian.Uint64(buf[5:]) != uint64(len(buf)-ckHeaderLen):
		err = fmt.Errorf("body length %d, buffer carries %d", binary.LittleEndian.Uint64(buf[5:]), len(buf)-ckHeaderLen)
	case crc32.ChecksumIEEE(buf[ckHeaderLen:]) != binary.LittleEndian.Uint32(buf[13:]):
		err = fmt.Errorf("checksum %08x, want %08x", crc32.ChecksumIEEE(buf[ckHeaderLen:]), binary.LittleEndian.Uint32(buf[13:]))
	default:
		r := creader{b: buf[ckHeaderLen:]}
		body(&r)
		err = r.done()
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorruptCheckpoint, err)
	}
	return nil
}

// encodeInto appends the checkpoint's body.
func (c *TrainingCheckpoint) encodeInto(w *cwriter) {
	w.i64(int64(c.Epoch))
	w.i32s(toInt32s(c.Part))
	w.u32(uint32(len(c.Params)))
	for _, p := range c.Params {
		w.str(p.Name)
		w.i32(int32(p.Rows))
		w.i32(int32(p.Cols))
		w.f64s(p.Data)
	}
	w.bool(c.Trainer != nil)
	if t := c.Trainer; t != nil {
		w.i64(int64(t.NextEpoch))
		w.i64(int64(t.SinceBest))
		w.f64(t.BestValAcc)
		w.u32(uint32(len(t.Epochs)))
		for _, e := range t.Epochs {
			w.i64(int64(e.Epoch))
			w.f64(e.Loss)
			w.f64(e.TrainAcc)
			w.f64(e.ValAcc)
		}
		w.bool(t.Opt != nil)
		if t.Opt != nil {
			w.i64(int64(t.Opt.T))
			for _, moments := range [][][]float64{t.Opt.M, t.Opt.V} {
				w.u32(uint32(len(moments)))
				for _, v := range moments {
					w.f64s(v)
				}
			}
		}
	}
	w.u32(uint32(len(c.Nodes)))
	for _, b := range c.Nodes {
		w.bytes(b)
	}
}

// decodeTrainingCheckpoint opens a checkpoint file's bytes.
func decodeTrainingCheckpoint(buf []byte) (*TrainingCheckpoint, error) {
	c := new(TrainingCheckpoint)
	if err := unseal(buf, func(r *creader) {
		c.Epoch, c.Part = int(r.i64()), toInts(r.i32s())
		c.Params = list[ParamState](r, 16)
		for i := range c.Params {
			c.Params[i] = ParamState{Name: r.str(), Rows: int(r.i32()), Cols: int(r.i32()), Data: r.f64s()}
		}
		if r.bool() {
			t := &gnn.TrainerState{NextEpoch: int(r.i64()), SinceBest: int(r.i64()), BestValAcc: r.f64()}
			t.Epochs = list[gnn.EpochStats](r, 32)
			for i := range t.Epochs {
				t.Epochs[i] = gnn.EpochStats{Epoch: int(r.i64()), Loss: r.f64(), TrainAcc: r.f64(), ValAcc: r.f64()}
			}
			if r.bool() {
				t.Opt = &nn.AdamState{T: int(r.i64())}
				for _, moments := range []*[][]float64{&t.Opt.M, &t.Opt.V} {
					*moments = list[[]float64](r, 4)
					for i := range *moments {
						(*moments)[i] = r.f64s()
					}
				}
			}
			c.Trainer = t
		}
		c.Nodes = list[[]byte](r, 4)
		for i := range c.Nodes {
			c.Nodes[i] = r.bytesField()
		}
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// encodePeerState seals a node's peer state as the blob its State frame
// carries. Error-feedback residuals go in ascending key order, the one
// canonical order of a map. A delay slot is written as the peer keeps it,
// row-sparse (worker.DelaySlot): its row and column counts, then the index
// and the values of every listed row.
func encodePeerState(st *worker.PeerState) []byte {
	return seal(func(w *cwriter) {
		w.i64(int64(st.NParts))
		w.u32(uint32(len(st.Pairs)))
		for _, ps := range st.Pairs {
			w.i64(ps.SamplerDraws)
			w.u64(ps.NodeState)
			keys := make([]int64, 0, len(ps.EF))
			for k := range ps.EF {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			w.u32(uint32(len(keys)))
			for _, k := range keys {
				w.i64(k)
				w.f64s(ps.EF[k])
			}
			w.i64(ps.AdaptiveBitsSum)
			w.i64(ps.AdaptiveCalls)
			w.i64(ps.EFCorrected)
		}
		w.i32s(st.Levels)
		w.u32(uint32(len(st.Delay)))
		for _, s := range st.Delay {
			w.bool(s != nil)
			if s == nil {
				continue
			}
			w.i32(int32(s.Rows))
			w.i32(int32(s.Cols))
			w.u32(uint32(len(s.Index)))
			for k, r := range s.Index {
				w.i32(r)
				putFloats(w.grow(8*s.Cols), s.Data[k*s.Cols:(k+1)*s.Cols])
			}
		}
	})
}

// maxDelayValues bounds a peer state's delay slots together, counted dense
// (rows × cols), by the most a State frame could carry written dense. Restore
// rebuilds the slots dense, and a row-sparse slot's size is declared, not
// paid for in bytes, so a node refuses to checkpoint more (the error shows
// when the state is saved, not when it is restored) and the decoder refuses a
// blob that declares more. A variable so a test can lower it.
var maxDelayValues = maxFrameLen / 8

// delayValues counts st's delay values dense, the measure maxDelayValues
// bounds.
func delayValues(st *worker.PeerState) int {
	n := 0
	for _, s := range st.Delay {
		if s != nil {
			n += s.Rows * s.Cols
		}
	}
	return n
}

// decodePeerState opens a peer-state blob; residual keys must ascend
// strictly, and so must a delay slot's rows, each below its row count. The
// slots stay row-sparse, so what decoding allocates is bounded by the bytes
// received; whether their shapes fit the peer is the peer's to check
// (worker.Peer.Restore).
func decodePeerState(blob []byte) (*worker.PeerState, error) {
	st := new(worker.PeerState)
	if err := unseal(blob, func(r *creader) {
		st.NParts = int(r.i64())
		st.Pairs = list[exchange.PairStreamState](r, 44)
		for i := range st.Pairs {
			ps := &st.Pairs[i]
			ps.SamplerDraws, ps.NodeState = r.i64(), r.u64()
			if n := r.count(12); n > 0 {
				ps.EF = make(map[int64][]float64, n)
				for j, prev := 0, int64(0); j < n && r.err == nil; j++ {
					k := r.i64()
					if j > 0 && k <= prev {
						r.fail("residual keys not ascending")
					}
					ps.EF[k], prev = r.f64s(), k
				}
			}
			ps.AdaptiveBitsSum, ps.AdaptiveCalls, ps.EFCorrected = r.i64(), r.i64(), r.i64()
		}
		st.Levels = r.i32s()
		st.Delay = list[*worker.DelaySlot](r, 1)
		budget := maxDelayValues
		for i := range st.Delay {
			if !r.bool() {
				continue
			}
			s := &worker.DelaySlot{Rows: int(r.i32()), Cols: int(r.i32())}
			if r.err == nil && (s.Rows < 0 || s.Cols < 1 || s.Rows > budget/s.Cols) {
				r.fail("delay slot shape")
			}
			if r.err != nil {
				break
			}
			budget -= s.Rows * s.Cols
			if n := r.count(4 + 8*s.Cols); n > 0 {
				s.Index, s.Data = make([]int32, n), make([]float64, n*s.Cols)
			}
			for k := range s.Index {
				row := r.i32()
				if r.err == nil && (row < 0 || int(row) >= s.Rows || k > 0 && row <= s.Index[k-1]) {
					r.fail("delay rows not ascending below the row count")
				}
				if r.err != nil {
					break
				}
				s.Index[k] = row
				getFloats(s.Data[k*s.Cols:(k+1)*s.Cols], r.take(8*s.Cols))
			}
			st.Delay[i] = s
		}
	}); err != nil {
		return nil, err
	}
	return st, nil
}
