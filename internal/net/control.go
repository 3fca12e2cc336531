package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"scgnn/internal/core"
	"scgnn/internal/dist"
	"scgnn/internal/sched"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
)

// Control-message codecs, the module's one binary codec: little-endian
// encoders with fully validated decoders. Control frames, and the checkpoint
// and peer-state bodies they carry (checkpoint.go), cross the trust boundary
// data batches do (any process that can reach a node's socket can send
// them), so no reflective decoder touches them: every length is checked
// against the bytes present before an element is allocated, and a malformed
// payload is an error, never a panic or an attacker-sized allocation. The
// encoding is canonical — decode(encode(m)) == m — as the fuzz targets pin.

var errBadControl = errors.New("net: malformed control payload")

// cwriter appends little-endian fields to a growing payload; the arrays,
// where a frame's megabytes are, reserve their bytes once and store in bulk.
type cwriter struct{ b []byte }

func (w *cwriter) u8(v byte) { w.b = append(w.b, v) }
func (w *cwriter) bool(v bool) {
	w.u8(0)
	if v {
		w.b[len(w.b)-1] = 1
	}
}
func (w *cwriter) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *cwriter) i32(v int32)   { w.u32(uint32(v)) }
func (w *cwriter) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *cwriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *cwriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *cwriter) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *cwriter) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// grow extends the payload by n bytes in one step and returns them.
func (w *cwriter) grow(n int) []byte {
	w.b = slices.Grow(w.b, n)
	w.b = w.b[:len(w.b)+n]
	return w.b[len(w.b)-n:]
}
func (w *cwriter) i32s(v []int32) {
	w.u32(uint32(len(v)))
	b := w.grow(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}
func (w *cwriter) i64s(v []int64) {
	w.u32(uint32(len(v)))
	b := w.grow(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

// f64rows appends rows of m as one float64 array (count, then the values row
// after row): the listed rows, or all of m when rows is nil. A nil m is an
// empty array.
func (w *cwriter) f64rows(m *tensor.Matrix, rows []int32) {
	if m == nil {
		w.u32(0)
		return
	}
	n := len(rows)
	if rows == nil {
		n = m.Rows
	}
	w.u32(uint32(n * m.Cols))
	b := w.grow(8 * n * m.Cols)
	if rows == nil {
		putFloats(b, m.Data)
		return
	}
	for _, u := range rows {
		putFloats(b, m.Row(int(u)))
		b = b[8*m.Cols:]
	}
}

// hostLE reports a little-endian host, where a float64's bytes in memory are
// its bytes on the wire.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes is xs's memory as bytes.
func floatBytes(xs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs))
}

// putFloats stores xs little-endian into the first 8·len(xs) bytes of b: one
// copy of their memory on a little-endian host, value by value elsewhere.
func putFloats(b []byte, xs []float64) {
	if hostLE {
		copy(b, floatBytes(xs))
		return
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// getFloats is putFloats' inverse: it fills xs from the first 8·len(xs)
// bytes of b.
func getFloats(xs []float64, b []byte) {
	if hostLE {
		copy(floatBytes(xs), b)
		return
	}
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
func (w *cwriter) f64s(v []float64) {
	w.u32(uint32(len(v)))
	putFloats(w.grow(8*len(v)), v)
}
func (w *cwriter) strs(v []string) {
	w.u32(uint32(len(v)))
	for _, s := range v {
		w.str(s)
	}
}

// creader consumes little-endian fields with sticky error handling: after
// the first malformed field every later read returns zero values, and done()
// reports the failure (or trailing garbage).
type creader struct {
	b   []byte
	off int
	err error
}

func (r *creader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", errBadControl, what, r.off)
	}
}

func (r *creader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("truncated field")
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *creader) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *creader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("non-canonical bool")
		return false
	}
}

func (r *creader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}
func (r *creader) i32() int32 { return int32(r.u32()) }
func (r *creader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}
func (r *creader) i64() int64   { return int64(r.u64()) }
func (r *creader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a u32 element count and validates it against the bytes that
// remain at elemSize each — the inflation guard.
func (r *creader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > (len(r.b)-r.off)/elemSize {
		r.fail("length exceeds payload")
		return 0
	}
	return n
}

// list reads an element count, bounded by the bytes left at elem bytes
// each, and returns a slice of that length (nil for none).
func list[T any](r *creader, elem int) []T {
	if n := r.count(elem); n > 0 {
		return make([]T, n)
	}
	return nil
}

func (r *creader) str() string {
	n := r.count(1)
	return string(r.take(n))
}

func (r *creader) bytesField() []byte { return append([]byte(nil), r.take(r.count(1))...) }
func (r *creader) i32s() []int32 {
	n := r.count(4)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = r.i32()
	}
	return v
}
func (r *creader) i64s(dst []int64) []int64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return dst[:0]
	}
	v := slices.Grow(dst[:0], n)[:n]
	for i := range v {
		v[i] = r.i64()
	}
	return v
}

// loadRows stores a float64 array's values, still encoded, into m's listed
// rows, or into all of m when rows is nil; p holds exactly that many values.
func loadRows(p []byte, m *tensor.Matrix, rows []int32) {
	if rows == nil {
		getFloats(m.Data, p)
		return
	}
	for _, u := range rows {
		row := m.Row(int(u))
		getFloats(row, p)
		p = p[8*len(row):]
	}
}
func (r *creader) f64s() []float64 {
	v := list[float64](r, 8)
	getFloats(v, r.take(8*len(v)))
	return v
}
func (r *creader) strs() []string {
	n := r.count(4) // each element costs at least its 4-byte length prefix
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]string, n)
	for i := range v {
		v[i] = r.str()
	}
	return v
}

// done returns the sticky decode error, or a trailing-bytes error when the
// payload is longer than the message — canonical frames have no padding.
func (r *creader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", errBadControl, len(r.b)-r.off)
	}
	return nil
}

// CoordID is the Hello sender id the coordinator uses (nodes use their
// partition id, always ≥ 0).
const CoordID int32 = -1

// Hello is the first frame on every connection: who is dialing, and at
// which mesh generation. A node accepts data-mesh connections only at the
// generation of the Setup it is assembling — every Setup moves it, so a late
// dial from an earlier assembly is refused and in-flight frames of a
// torn-down mesh can never leak into a rebuilt one.
type Hello struct {
	Sender int32
	Gen    uint32
}

func (m Hello) encodeInto(w *cwriter) {
	w.i32(m.Sender)
	w.u32(m.Gen)
}

func decodeHello(p []byte) (Hello, error) {
	r := creader{b: p}
	m := Hello{Sender: r.i32(), Gen: r.u32()}
	return m, r.done()
}

// The similarity byte of the Setup frame. A grouping similarity is code, not
// data, so the frame names it: nil and core.SemanticSimilarity are the
// paper's measure (Eq. 1), core.JaccardSimilarity its Fig. 6 baseline.
const (
	simSemantic byte = iota
	simJaccard
)

// simByte names a grouping similarity on the wire; a measure it cannot name
// is an error, which Coordinator.Setup returns before anything is sent.
func simByte(s core.Similarity) (byte, error) {
	switch s.(type) {
	case nil, core.SemanticSimilarity:
		return simSemantic, nil
	case core.JaccardSimilarity:
		return simJaccard, nil
	}
	return 0, fmt.Errorf("net: cannot ship grouping similarity %q to a node (want semantic or jaccard)", s.Name())
}

// encodeConfig appends the dist.Config every replica derives its state from.
// The similarity must be one simByte names (Coordinator.Setup checks).
func encodeConfig(w *cwriter, c dist.Config) {
	g, d, sc := c.Plan.Grouping, c.Plan.Drop, c.Sched
	sim, _ := simByte(g.Sim)
	w.bool(c.Semantic)
	w.f64(c.SampleRate)
	w.i32(int32(c.QuantBits))
	w.bool(c.AdaptiveQuant)
	w.bool(c.ErrorFeedback)
	w.i32(int32(c.DelayPeriod))
	w.i64(c.Seed)
	w.i32(int32(g.K))
	w.i32(int32(g.KMax))
	w.i32(int32(g.MaxPivots))
	w.i64(g.Seed)
	w.u8(sim)
	w.bool(c.Plan.UniformWeights)
	w.bool(d.O2O)
	w.bool(d.O2M)
	w.bool(d.M2O)
	w.bool(d.M2M)
	w.bool(sc.Enabled)
	w.i32(int32(sc.EpochsPerLevel))
	w.i32(int32(sc.Stagger))
}

func decodeConfig(r *creader) dist.Config {
	var c dist.Config
	g, d, sc := &c.Plan.Grouping, &c.Plan.Drop, &c.Sched
	c.Semantic = r.bool()
	c.SampleRate = r.f64()
	c.QuantBits = int(r.i32())
	c.AdaptiveQuant = r.bool()
	c.ErrorFeedback = r.bool()
	c.DelayPeriod = int(r.i32())
	c.Seed = r.i64()
	g.K = int(r.i32())
	g.KMax = int(r.i32())
	g.MaxPivots = int(r.i32())
	g.Seed = r.i64()
	switch r.u8() {
	case simSemantic: // the nil default
	case simJaccard:
		g.Sim = core.JaccardSimilarity{}
	default:
		r.fail("unknown similarity")
	}
	c.Plan.UniformWeights = r.bool()
	d.O2O = r.bool()
	d.O2M = r.bool()
	d.M2O = r.bool()
	d.M2M = r.bool()
	sc.Enabled = r.bool()
	sc.EpochsPerLevel = int(r.i32())
	sc.Stagger = int(r.i32())
	return c
}

// Setup carries everything a node needs to rebuild the full cluster state:
// the undirected edge list, the partition vector, the method config, and the
// data-mesh addresses of every node. Plans and kernels are
// never serialized — each replica rebuilds them deterministically.
type Setup struct {
	NParts int32
	Me     int32
	Gen    uint32
	Addrs  []string
	Nodes  int32
	EdgeU  []int32
	EdgeV  []int32
	Part   []int32
	Cfg    dist.Config
	shared []byte // when set, stands in for the fields after Gen: their encodeShared bytes
}

func (m Setup) encodeInto(w *cwriter) {
	w.i32(m.NParts)
	w.i32(m.Me)
	w.u32(m.Gen)
	if m.shared != nil {
		w.b = append(w.b, m.shared...)
	} else {
		m.encodeShared(w)
	}
}

// encodeShared appends everything after Gen.
func (m Setup) encodeShared(w *cwriter) {
	w.strs(m.Addrs)
	w.i32(m.Nodes)
	w.i32s(m.EdgeU)
	w.i32s(m.EdgeV)
	w.i32s(m.Part)
	encodeConfig(w, m.Cfg)
}

func decodeSetup(p []byte) (Setup, error) {
	r := creader{b: p}
	m := Setup{
		NParts: r.i32(),
		Me:     r.i32(),
		Gen:    r.u32(),
		Addrs:  r.strs(),
		Nodes:  r.i32(),
		EdgeU:  r.i32s(),
		EdgeV:  r.i32s(),
		Part:   r.i32s(),
	}
	m.Cfg = decodeConfig(&r)
	if err := r.done(); err != nil {
		return Setup{}, err
	}
	// Structural validation beyond field framing: the graph build and
	// partition checks downstream assume these invariants.
	if m.NParts < 1 || m.NParts > 1<<16 {
		return Setup{}, fmt.Errorf("%w: nparts %d", errBadControl, m.NParts)
	}
	if m.Me < 0 || m.Me >= m.NParts {
		return Setup{}, fmt.Errorf("%w: node id %d out of [0,%d)", errBadControl, m.Me, m.NParts)
	}
	if len(m.Addrs) != int(m.NParts) {
		return Setup{}, fmt.Errorf("%w: %d addresses for %d parts", errBadControl, len(m.Addrs), m.NParts)
	}
	if m.Nodes < 0 {
		return Setup{}, fmt.Errorf("%w: negative node count", errBadControl)
	}
	if len(m.EdgeU) != len(m.EdgeV) {
		return Setup{}, fmt.Errorf("%w: edge list U %d vs V %d", errBadControl, len(m.EdgeU), len(m.EdgeV))
	}
	for i := range m.EdgeU {
		if m.EdgeU[i] < 0 || m.EdgeU[i] >= m.Nodes || m.EdgeV[i] < 0 || m.EdgeV[i] >= m.Nodes {
			return Setup{}, fmt.Errorf("%w: edge %d (%d,%d) out of %d nodes", errBadControl, i, m.EdgeU[i], m.EdgeV[i], m.Nodes)
		}
	}
	if len(m.Part) != int(m.Nodes) {
		return Setup{}, fmt.Errorf("%w: partition len %d, graph has %d nodes", errBadControl, len(m.Part), m.Nodes)
	}
	return m, nil
}

// Ack completes a control request; a non-empty Err carries the failure.
type Ack struct {
	Seq uint64
	Err string
}

func (m Ack) encodeInto(w *cwriter) {
	w.u64(m.Seq)
	w.str(m.Err)
}

func decodeAck(p []byte) (Ack, error) {
	r := creader{b: p}
	m := Ack{Seq: r.u64(), Err: r.str()}
	return m, r.done()
}

// Epoch marks an epoch boundary (Eval marks a measurement-only pass). Under
// variable-rate scheduling it carries the coordinator's decided per-pair
// rung levels for the epoch, which every node applies before it starts the
// epoch, so the fleet reconfigures on the same boundary the self-advancing
// runtimes do; without scheduling it carries none.
type Epoch struct {
	Epoch  int32
	Eval   bool
	Levels []int32
}

func (m Epoch) encodeInto(w *cwriter) {
	w.i32(m.Epoch)
	w.bool(m.Eval)
	w.i32s(m.Levels)
}

func decodeEpoch(p []byte) (Epoch, error) {
	r := creader{b: p}
	m := Epoch{Epoch: r.i32(), Eval: r.bool(), Levels: r.i32s()}
	if err := r.done(); err != nil {
		return Epoch{}, err
	}
	for i, lv := range m.Levels {
		if lv < 0 {
			return Epoch{}, fmt.Errorf("%w: pair %d schedule level %d", errBadControl, i, lv)
		}
	}
	return m, nil
}

// Round releases a node into one aggregate round. Its float section carries
// the current feature rows of the nodes the receiver owns, flattened in
// ascending owned-node order (the coordinator's scatter), in full float64 so
// the wire adds no precision loss before the batch encoders do their fp32
// conversion. Neither side flattens them in memory: rows Rows of H are encoded
// straight into the frame, and decodeRound returns them encoded, for loadRows
// into the node's shard matrix, whose rows are in that order.
//
// Ordinal is the round's place in the epoch, sent only when the nodes are
// behind it. The coordinator's model may serve a round from its own buffer
// without releasing the nodes (gnn.RoundReuser), and that round still takes
// its ordinal, which keys the nodes' delay slots and error-feedback
// residuals; the next frame carries the ordinal the nodes must move to. Every
// other frame leaves it 0, which is not encoded, so such a frame is the frame
// it was before the field existed and a node runs it at its own next
// ordinal.
type Round struct {
	Seq      uint64
	Backward bool
	Cols     int32
	H        *tensor.Matrix
	Rows     []int32
	Ordinal  int32
}

func (m Round) encodeInto(w *cwriter) {
	w.u64(m.Seq)
	w.bool(m.Backward)
	w.i32(m.Cols)
	w.f64rows(m.H, m.Rows)
	if m.Ordinal != 0 {
		w.i32(m.Ordinal)
	}
}

func decodeRound(p []byte) (m Round, h []byte, err error) {
	r := creader{b: p}
	m = Round{Seq: r.u64(), Backward: r.bool(), Cols: r.i32()}
	h = r.take(8 * r.count(8))
	if r.err == nil && r.off < len(r.b) {
		if m.Ordinal = r.i32(); m.Ordinal <= 0 {
			r.fail("round ordinal not positive")
		}
	}
	if err := r.done(); err != nil {
		return Round{}, nil, err
	}
	if m.Cols < 1 {
		return Round{}, nil, fmt.Errorf("%w: round cols %d", errBadControl, m.Cols)
	}
	if len(h)/8%int(m.Cols) != 0 {
		return Round{}, nil, fmt.Errorf("%w: %d h values not divisible by %d cols", errBadControl, len(h)/8, m.Cols)
	}
	return m, h, nil
}

// RoundDone reports a completed round: the aggregated rows this node owns
// (a float section like Round's, encoded from the node's shard matrix Out,
// whose rows are in that order), the node's tally since its last report —
// bytes and messages to every destination, then the processing counters —
// and the node-side error if the round failed (which ships an empty tally).
type RoundDone struct {
	Seq uint64
	Out *tensor.Matrix
	simnet.Tally
	Err string
}

func (m RoundDone) encodeInto(w *cwriter) {
	w.u64(m.Seq)
	w.f64rows(m.Out, nil)
	w.i64s(m.Bytes)
	w.i64s(m.Msgs)
	w.i64(m.Work.ComputeFlops)
	w.i64(m.Work.QuantValues)
	w.i64(m.Work.SampleEdges)
	w.i64(m.Work.CacheValues)
	w.i64(m.Work.SemanticValues)
	w.str(m.Err)
}

// decodeRoundDone decodes into m, over its traffic rows, and stores the nout
// out values into the listed rows of out when exactly that many (a failed round ships none).
func decodeRoundDone(p []byte, m *RoundDone, out *tensor.Matrix, rows []int32) (nout int, err error) {
	r := creader{b: p}
	m.Seq = r.u64()
	vals := r.take(8 * r.count(8))
	m.Bytes, m.Msgs = r.i64s(m.Bytes), r.i64s(m.Msgs)
	m.Work = simnet.Work{ComputeFlops: r.i64(), QuantValues: r.i64(), SampleEdges: r.i64(), CacheValues: r.i64(), SemanticValues: r.i64()}
	m.Err = r.str()
	if err := r.done(); err != nil {
		return 0, err
	}
	if len(m.Bytes) != len(m.Msgs) {
		return 0, fmt.Errorf("%w: traffic rows %d bytes vs %d msgs", errBadControl, len(m.Bytes), len(m.Msgs))
	}
	if len(vals) == 8*len(rows)*out.Cols {
		loadRows(vals, out, rows)
	}
	return len(vals) / 8, nil
}

// Batch is one node-to-node halo buffer. Seq tags the coordinator round it
// belongs to: a receiver must never see a foreign sequence (the global round
// barrier forbids cross-round mixing), so a mismatch is a protocol error —
// the typed symptom of duplicated or stray frames under fault injection.
// A decoded Data is a view into the frame's payload, not a copy.
type Batch struct {
	Seq  uint64
	From int32
	Data []byte
}

func (m Batch) encodeInto(w *cwriter) {
	w.u64(m.Seq)
	w.i32(m.From)
	w.bytes(m.Data)
}

func decodeBatch(p []byte) (Batch, error) {
	r := creader{b: p}
	m := Batch{Seq: r.u64(), From: r.i32(), Data: r.take(r.count(1))}
	return m, r.done()
}

// Repart swaps in a new partition vector; every node computes the same
// incremental dirty set locally.
type Repart struct {
	Seq  uint64
	Part []int32
}

func (m Repart) encodeInto(w *cwriter) {
	w.u64(m.Seq)
	w.i32s(m.Part)
}

func decodeRepart(p []byte) (Repart, error) {
	r := creader{b: p}
	m := Repart{Seq: r.u64(), Part: r.i32s()}
	return m, r.done()
}

// RepartDone reports the dirty pair indices the node computed, which the
// coordinator cross-checks across nodes (they must all agree).
type RepartDone struct {
	Seq   uint64
	Dirty []int32
	Err   string
}

func (m RepartDone) encodeInto(w *cwriter) {
	w.u64(m.Seq)
	w.i32s(m.Dirty)
	w.str(m.Err)
}

func decodeRepartDone(p []byte) (RepartDone, error) {
	r := creader{b: p}
	m := RepartDone{Seq: r.u64(), Dirty: r.i32s(), Err: r.str()}
	return m, r.done()
}

// State carries a node's checkpointed runtime state (a peer-state blob,
// CRC-validated by the opener) to the coordinator, or — as a
// frameRestore payload — back to a node.
type State struct {
	Seq  uint64
	Blob []byte
	Err  string
}

func (m State) encodeInto(w *cwriter) {
	w.u64(m.Seq)
	w.bytes(m.Blob)
	w.str(m.Err)
}

func decodeState(p []byte) (State, error) {
	r := creader{b: p}
	m := State{Seq: r.u64(), Blob: r.bytesField(), Err: r.str()}
	return m, r.done()
}

// SchedSig carries one node's per-pair scheduler signals (the integer-exact
// counters of the sched package's signal contract, one 2×i64 record per pair
// in pair-index order: EFUnits, EFCorrected). The coordinator's request ships
// none; the node's response fills them.
type SchedSig struct {
	Seq     uint64
	Signals []sched.Signals
	Err     string
}

func (m SchedSig) encodeInto(w *cwriter) {
	w.u64(m.Seq)
	w.u32(uint32(len(m.Signals)))
	for _, s := range m.Signals {
		w.i64(s.EFUnits)
		w.i64(s.EFCorrected)
	}
	w.str(m.Err)
}

func decodeSchedSig(p []byte) (SchedSig, error) {
	r := creader{b: p}
	m := SchedSig{Seq: r.u64(), Signals: list[sched.Signals](&r, 16)}
	for i := range m.Signals {
		m.Signals[i] = sched.Signals{EFUnits: r.i64(), EFCorrected: r.i64()}
	}
	m.Err = r.str()
	return m, r.done()
}
