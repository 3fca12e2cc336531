package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	stdnet "net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"scgnn/internal/exchange"
	"scgnn/internal/sched"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
	"scgnn/internal/worker"
)

// The frame layer sits on the transport trust boundary: any process that can
// reach a node's socket can write arbitrary bytes to it, so framed.read plus
// every control codec must survive hostile input — malformed lengths,
// truncated frames, unknown control tags — with a typed error, never a panic
// or an attacker-sized allocation. FuzzFrameDecoder locks that down, plus a
// canonicality differential: the decoders are strict (trailing bytes and
// non-canonical bools are errors), so any payload that decodes successfully
// must re-encode to exactly the bytes it came from.
//
// The seed corpus under testdata/fuzz/ is generated by TestFuzzSeedCorpus
// (run with -update-corpus to regenerate) so plain `go test` exercises every
// seed and `go test -fuzz` starts from representative valid and hostile
// frames.

// reencode decodes one control payload by frame type and re-encodes the
// result. known=false for tags outside the control set (a server would
// reject those as protocol errors; the codecs never see them).
func reencode(ft frameType, payload []byte) (enc []byte, known bool, err error) {
	switch ft {
	case frameHello:
		m, err := decodeHello(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameSetup:
		m, err := decodeSetup(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameAck:
		m, err := decodeAck(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameEpoch:
		m, err := decodeEpoch(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameRound:
		m, err := decodeRoundScratch(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameRoundDone:
		m, err := decodeRoundDoneScratch(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameBatch:
		m, err := decodeBatch(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameRepart:
		m, err := decodeRepart(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameRepartDone:
		m, err := decodeRepartDone(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameState, frameRestore:
		m, err := decodeState(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameSchedSig:
		m, err := decodeSchedSig(payload)
		if err != nil {
			return nil, true, err
		}
		return encode(m), true, nil
	case frameShutdown:
		if len(payload) != 0 {
			return nil, true, errBadControl
		}
		return nil, true, nil
	default:
		return nil, false, nil
	}
}

// encode returns m's payload.
func encode(m encoder) []byte {
	var w cwriter
	m.encodeInto(&w)
	return w.b
}

// raw is an already-encoded payload, for the frames no message encodes to.
type raw []byte

func (p raw) encodeInto(w *cwriter) { w.b = append(w.b, p...) }

// memConn stands in for a socket under a framed connection: reads consume the
// buffer, writes append to it. Deadlines and Close are never reached.
type memConn struct {
	stdnet.Conn
	buf *bytes.Buffer
}

func (c memConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c memConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// framedOver returns a fresh framed connection about to read stream.
func framedOver(stream []byte) *framed {
	return &framed{conn: memConn{buf: bytes.NewBuffer(stream)}}
}

func iota32(n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(i)
	}
	return v
}

// decodeRoundScratch decodes a Round payload the way a node does, into a
// scratch matrix of exactly the rows the frame carries.
func decodeRoundScratch(p []byte) (Round, error) {
	m, h, err := decodeRound(p)
	if err != nil {
		return Round{}, err
	}
	m.H = tensor.New(len(h)/8/int(m.Cols), int(m.Cols))
	m.Rows = iota32(m.H.Rows)
	loadRows(h, m.H, m.Rows)
	return m, nil
}

// decodeRoundDoneScratch decodes a RoundDone payload into a scratch
// one-column matrix sized to the value count the frame declares (when the
// payload can hold that many), so any well-formed float section is stored.
func decodeRoundDoneScratch(p []byte) (RoundDone, error) {
	n := 0
	if len(p) >= 12 {
		if c := int(binary.LittleEndian.Uint32(p[8:])); c <= (len(p)-12)/8 {
			n = c
		}
	}
	out, rows := tensor.New(n, 1), iota32(n)
	var m RoundDone
	nout, err := decodeRoundDone(p, &m, out, rows)
	if nout == n {
		m.Out = out
	}
	return m, err
}

// readErrTyped reports whether a framed read failed inside the typed set.
func readErrTyped(err error) bool {
	return err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, errFrameTooLarge) || errors.Is(err, errZeroFrame)
}

// FuzzFrameDecoder feeds arbitrary bytes through the framing layer and every
// control codec. Invariants on any input: no panic; payload allocation never
// exceeds the bytes actually delivered; a payload that decodes successfully
// is canonical (re-encodes to the identical bytes) and survives a
// write-frame/read-frame roundtrip unchanged.
func FuzzFrameDecoder(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := framedOver(data)
		for {
			ft, payload, err := fc.read()
			if err != nil {
				if !readErrTyped(err) {
					t.Fatalf("read error outside the typed set: %v", err)
				}
				return
			}
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes from %d input bytes", len(payload), len(data))
			}
			enc, known, derr := reencode(ft, payload)
			if !known || derr != nil {
				continue // a server surfaces these as protocol errors
			}
			if !bytes.Equal(enc, payload) {
				t.Fatalf("type %d: decoded payload is non-canonical:\n got %x\nwant %x", ft, enc, payload)
			}
			loop := framedOver(nil)
			if err := loop.write(ft, raw(enc)); err != nil {
				t.Fatalf("write of decoded payload: %v", err)
			}
			ft2, payload2, err := loop.read()
			if err != nil || ft2 != ft || !bytes.Equal(payload2, payload) {
				t.Fatalf("frame roundtrip: type %d err %v", ft2, err)
			}
		}
	})
}

// FuzzFrameStream pins the retained read buffer: any byte string read as a
// frame sequence through ONE connection yields the same (type, payload,
// error) sequence as a fresh connection per frame — no stale tail of a
// longer earlier frame, no length taken from capacity.
func FuzzFrameStream(f *testing.F) {
	for _, seed := range frameStreamSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := bytes.NewBuffer(append([]byte(nil), data...))
		retained := &framed{conn: memConn{buf: stream}}
		for {
			// The fresh connection reads what is left without consuming it;
			// the retained one then takes the same bytes off the stream.
			rest := stream.Len()
			wantFt, want, wantErr := framedOver(stream.Bytes()).read()
			ft, got, err := retained.read()
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("at %d bytes left: retained err %v, fresh err %v", rest, err, wantErr)
			}
			if err != nil {
				if !readErrTyped(err) {
					t.Fatalf("read error outside the typed set: %v", err)
				}
				return
			}
			if ft != wantFt || !bytes.Equal(got, want) {
				t.Fatalf("at %d bytes left: retained (%d, %x), fresh (%d, %x)", rest, ft, got, wantFt, want)
			}
		}
	})
}

// corpusSeed is one named seed-corpus entry.
type corpusSeed struct {
	name string
	data []byte
}

// frame wraps a control payload in the wire framing.
func frame(ft frameType, payload []byte) []byte {
	var buf bytes.Buffer
	fc := framed{conn: memConn{buf: &buf}}
	if err := fc.write(ft, raw(payload)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// frameStreamSeeds returns the FuzzFrameStream seed corpus: sequences whose
// frames shrink, grow and tear, which is what a retained buffer can get
// wrong.
func frameStreamSeeds() []corpusSeed {
	long := frame(frameBatch, encode(Batch{Seq: 1, From: 2, Data: bytes.Repeat([]byte{0xab}, 300)}))
	short := frame(frameEpoch, encode(Epoch{Epoch: 3, Eval: true}))
	empty := frame(frameShutdown, nil)
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	return []corpusSeed{
		{"long-short", cat(long, short)},
		{"short-long-empty-short", cat(short, long, empty, short)},
		{"long-then-torn-short", cat(long, short[:len(short)-1])},
		{"long-then-huge-length", cat(long, []byte{0xff, 0xff, 0xff, 0xff, byte(frameHello)})},
		{"long-then-zero-length", cat(long, []byte{0, 0, 0, 0}, short)},
		{"long-then-overdeclared", cat(long, []byte{0x00, 0x01, 0x00, 0x00, byte(frameBatch), 1, 2, 3})},
	}
}

// frameSeeds returns the FuzzFrameDecoder seed corpus: one valid frame per
// control message (real encodings, so the fuzzer starts inside the accepted
// grammar) plus the hostile shapes the hand-written tests pin down.
func frameSeeds() []corpusSeed {
	setup := Setup{
		NParts: 2, Me: 1, Gen: 3,
		Addrs: []string{"/tmp/a.sock", "/tmp/b.sock"},
		Nodes: 4,
		EdgeU: []int32{0, 1, 2}, EdgeV: []int32{1, 2, 3},
		Part: []int32{0, 0, 1, 1},
		Cfg:  exampleConfig(),
	}
	round := Round{Seq: 9, Backward: true, Cols: 2,
		H: tensor.FromRows([][]float64{{1, -2.5}, {0.25, 0}}), Rows: []int32{0, 1}}
	done := RoundDone{Seq: 9, Out: tensor.FromRows([][]float64{{0.5, 1.5}}),
		Tally: simnet.Tally{Bytes: []int64{0, 64}, Msgs: []int64{0, 3},
			Work: simnet.Work{ComputeFlops: 96, QuantValues: 12, SemanticValues: 4}}}

	truncated := frame(frameSetup, encode(setup))
	truncated = truncated[:len(truncated)-7]
	// A Setup with a corrupted element count: the Addrs count claims far more
	// strings than the payload carries, which the inflation guard must refuse.
	inflated := frame(frameSetup, encode(setup))
	inflated[4+1+4+4+4+3] = 0xff // high byte of the Addrs count field
	hugeLen := []byte{0xff, 0xff, 0xff, 0xff, byte(frameHello)}
	zeroLen := []byte{0, 0, 0, 0}
	trailing := frame(frameHello, append(encode(Hello{Sender: 0, Gen: 1}), 0xaa))
	badBool := frame(frameEpoch, append(encode(Epoch{Epoch: 4})[:4], 2))

	multi := append([]byte(nil), frame(frameHello, encode(Hello{Sender: CoordID, Gen: 1}))...)
	multi = append(multi, frame(frameEpoch, encode(Epoch{Epoch: 2, Eval: true}))...)
	multi = append(multi, frame(frameRound, encode(round))...)
	multi = append(multi, frame(frameShutdown, nil)...)

	return []corpusSeed{
		{"empty", []byte{}},
		{"hello", frame(frameHello, encode(Hello{Sender: 0, Gen: 1}))},
		{"setup", frame(frameSetup, encode(setup))},
		{"ack", frame(frameAck, encode(Ack{Seq: 5, Err: "peer 2 unreachable"}))},
		{"epoch", frame(frameEpoch, encode(Epoch{Epoch: 12}))},
		{"epoch-levels", frame(frameEpoch, encode(Epoch{Epoch: 3, Eval: true, Levels: []int32{0, 1, 2, 3}}))},
		{"round", frame(frameRound, encode(round))},
		{"round-ordinal", frame(frameRound, encode(Round{Seq: 10, Cols: 2,
			H: tensor.FromRows([][]float64{{0.5, -1}}), Rows: []int32{0}, Ordinal: 2}))},
		{"round-done", frame(frameRoundDone, encode(done))},
		{"batch", frame(frameBatch, encode(Batch{Seq: 9, From: 0, Data: []byte{1, 2, 3, 4}}))},
		{"repart", frame(frameRepart, encode(Repart{Seq: 10, Part: []int32{1, 1, 0, 0}}))},
		{"repart-done", frame(frameRepartDone, encode(RepartDone{Seq: 10, Dirty: []int32{1, 2}}))},
		{"state", frame(frameState, encode(State{Seq: 11, Blob: []byte{0xde, 0xad}}))},
		{"sched-sig", frame(frameSchedSig, encode(SchedSig{Seq: 13, Signals: []sched.Signals{
			{BitsSum: 24, BitsCalls: 4}, {EFUnits: 2, EFCorrected: 17},
			{}, {EFCorrected: 1},
		}}))},
		{"sched-sig-request", frame(frameSchedSig, encode(SchedSig{Seq: 13}))},
		{"shutdown", frame(frameShutdown, nil)},
		{"multi-frame", multi},
		{"hostile-huge-length", hugeLen},
		{"hostile-zero-length", zeroLen},
		{"hostile-truncated", truncated},
		{"hostile-unknown-type", frame(frameType(200), []byte{1, 2, 3})},
		{"hostile-count-inflation", inflated},
		{"hostile-trailing", trailing},
		{"hostile-bad-bool", badBool},
		{"hostile-negative-level", frame(frameEpoch, encode(Epoch{Epoch: 3, Levels: []int32{0, -1}}))},
	}
}

// FuzzEpoch targets the epoch-boundary codec alone: the frame a coordinator
// sends every node before every epoch, carrying the schedule's decided levels
// on a scheduled run. Invariants mirror the global decoder fuzz — no panic,
// typed errors only, and any accepted payload is canonical — with the
// generator focused on this one grammar so mutation explores level vectors
// instead of wasting cycles on unrelated frame types.
func FuzzEpoch(f *testing.F) {
	for _, seed := range epochSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeEpoch(data)
		if err != nil {
			if !errors.Is(err, errBadControl) {
				t.Fatalf("decode error outside the typed set: %v", err)
			}
			return
		}
		for _, lv := range m.Levels {
			if lv < 0 {
				t.Fatalf("negative level %d survived decode", lv)
			}
		}
		if enc := encode(m); !bytes.Equal(enc, data) {
			t.Fatalf("accepted payload is non-canonical:\n got %x\nwant %x", enc, data)
		}
	})
}

// epochSeeds returns the FuzzEpoch seed corpus: valid payloads across the
// level-vector shapes plus the hostile framings the hand-written tests pin
// down.
func epochSeeds() []corpusSeed {
	valid := encode(Epoch{Epoch: 7, Levels: []int32{0, 1, 2, 3, 3, 2, 1, 0, 0}})
	negative := encode(Epoch{Epoch: 7, Levels: []int32{0, -1}})
	truncated := append([]byte(nil), valid[:len(valid)-3]...)
	inflated := append([]byte(nil), valid...)
	inflated[4+1+3] = 0xff // high byte of the Levels count
	return []corpusSeed{
		{"empty", []byte{}},
		{"valid", valid},
		{"no-pairs", encode(Epoch{Epoch: 0, Eval: true})},
		{"hostile-negative-level", negative},
		{"hostile-truncated", truncated},
		{"hostile-count-inflation", inflated},
		{"hostile-trailing", append(append([]byte(nil), valid...), 0xaa)},
	}
}

// FuzzCheckpointDecoders feeds arbitrary bytes to the two state decoders —
// the checkpoint file's and the peer-state blob's, which a node's Restore
// frame hands socket bytes to — both as a whole buffer and as the body of a
// sound envelope, so mutation reaches past the CRC. Invariants on any input:
// no panic, every failure wraps ErrCorruptCheckpoint, and an accepted buffer
// re-encodes to exactly itself.
func FuzzCheckpointDecoders(f *testing.F) {
	for _, seed := range checkpointSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sealed := seal(func(w *cwriter) { w.b = append(w.b, body...) })
		check := func(what string, buf []byte, reencode func() []byte, err error) {
			if err != nil {
				if !errors.Is(err, ErrCorruptCheckpoint) {
					t.Fatalf("%s: decode error outside the typed set: %v", what, err)
				}
			} else if enc := reencode(); !bytes.Equal(enc, buf) {
				t.Fatalf("%s: accepted buffer is non-canonical:\n got %x\nwant %x", what, enc, buf)
			}
		}
		for _, buf := range [][]byte{body, sealed} {
			ck, err := decodeTrainingCheckpoint(buf)
			check("checkpoint", buf, func() []byte { return seal(ck.encodeInto) }, err)
			st, err := decodePeerState(buf)
			check("peer state", buf, func() []byte { return encodePeerState(st) }, err)
		}
	})
}

// checkpointSeeds returns the FuzzCheckpointDecoders seed corpus: envelope
// bodies of a full checkpoint and a full peer state (so the fuzzer starts
// inside both grammars), one sealed blob, and the hostile shapes the
// hand-written tests pin down.
func checkpointSeeds() []corpusSeed {
	peer := encodePeerState(demoPeerState())
	ck := seal(demoCheckpoint().encodeInto)[ckHeaderLen:]
	inflated := append([]byte(nil), peer[ckHeaderLen:]...)
	inflated[8+3] = 0xff // high byte of the pair count
	// One pair with two residuals, their 20-byte entries (key, count, one
	// value) swapped after the 16 bytes of NParts, pair count and residual
	// count: keys that do not ascend.
	ef := encodePeerState(&worker.PeerState{NParts: 1, Pairs: []exchange.PairStreamState{{
		EF: map[int64][]float64{1: {0.5}, 2: {-0.5}}}}})[ckHeaderLen:]
	unsorted := slices.Concat(ef[:16], ef[36:56], ef[16:36], ef[56:])
	bare := seal((&TrainingCheckpoint{Epoch: 1}).encodeInto)[ckHeaderLen:]
	badBool := append([]byte(nil), bare...)
	badBool[len(badBool)-5] = 2 // the trainer's presence flag
	// One delay slot of three rows and one column listing rows 0 and 2: its
	// bitmap is the byte after the 29 of NParts, the empty pair and level
	// lists, the slot count and flag, rows and cols. Setting bit 3 lists a
	// row past the row count (a third value appended, so that is the only
	// fault); a 20-row slot cut inside its 3-byte bitmap is a truncated one.
	delay := encodePeerState(&worker.PeerState{NParts: 1,
		Delay: []*worker.DelaySlot{{Rows: 3, Cols: 1, Index: []int32{0, 2}, Data: []float64{1, 2}}}})[ckHeaderLen:]
	pastRows := append(append([]byte(nil), delay...), make([]byte, 8)...)
	pastRows[29] |= 1 << 3
	wide := encodePeerState(&worker.PeerState{NParts: 1,
		Delay: []*worker.DelaySlot{{Rows: 20, Cols: 1, Index: []int32{19}, Data: []float64{1}}}})[ckHeaderLen:]
	v1 := append([]byte(nil), peer...)
	v1[4] = 1
	v2 := append([]byte(nil), peer...)
	v2[4] = 2
	v3 := append([]byte(nil), peer...)
	v3[4] = 3
	v4 := append([]byte(nil), peer...)
	v4[4] = 4
	return []corpusSeed{
		{"empty", []byte{}},
		{"checkpoint", ck},
		{"peer-state", peer[ckHeaderLen:]},
		{"sealed-peer-state", peer},
		{"no-trainer", bare},
		{"hostile-truncated", ck[:len(ck)-5]},
		{"hostile-count-inflation", inflated},
		{"hostile-unsorted-residuals", unsorted},
		{"hostile-bad-bool", badBool},
		{"hostile-trailing", append(append([]byte(nil), ck...), 0xaa)},
		{"hostile-version-1", v1},
		{"hostile-version-2", v2},
		{"hostile-version-3", v3},
		{"hostile-version-4", v4},
		{"delay-bitmap", delay},
		{"hostile-delay-bit-past-rows", pastRows},
		{"hostile-truncated-delay-bitmap", wide[:29+2]},
	}
}

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the checked-in fuzz seed corpus under testdata/fuzz/")

// TestFuzzSeedCorpus pins the checked-in seed corpora to their generators:
// every seed must exist under testdata/fuzz/<target>/ with the exact
// "go test fuzz v1" encoding of its bytes, so plain `go test` replays every
// seed and `go test -fuzz` starts from representative frames. Run with
// -update-corpus to regenerate after changing the seeds.
func TestFuzzSeedCorpus(t *testing.T) {
	corpora := map[string][]corpusSeed{
		"FuzzFrameDecoder":       frameSeeds(),
		"FuzzFrameStream":        frameStreamSeeds(),
		"FuzzEpoch":              epochSeeds(),
		"FuzzCheckpointDecoders": checkpointSeeds(),
	}
	for target, seeds := range corpora {
		dir := filepath.Join("testdata", "fuzz", target)
		if *updateCorpus {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for _, seed := range seeds {
			path := filepath.Join(dir, seed.name)
			want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed.data)) + ")\n"
			if *updateCorpus {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("seed corpus file missing (regenerate with -update-corpus): %v", err)
			}
			if string(got) != want {
				t.Fatalf("%s is stale (regenerate with -update-corpus)", path)
			}
		}
	}
	if *updateCorpus {
		t.Log("seed corpora rewritten")
	}
}
