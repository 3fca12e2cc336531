package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"slices"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/dist"
	"scgnn/internal/sched"
	"scgnn/internal/simnet"
	"scgnn/internal/tensor"
)

// exampleConfig is a dist.Config exercising every field of the Setup frame.
func exampleConfig() dist.Config {
	return dist.Config{
		Semantic: true,
		Plan: core.PlanConfig{
			Grouping: core.GroupingConfig{K: 8, KMax: 16, MaxPivots: 32, Seed: 11,
				Sim: core.JaccardSimilarity{}},
			Drop:           core.DropMask{O2O: true, M2M: true},
			UniformWeights: true,
		},
		SampleRate:    0.5,
		QuantBits:     4,
		AdaptiveQuant: true,
		ErrorFeedback: true,
		DelayPeriod:   3,
		Seed:          7,
		Sched:         sched.Policy{Enabled: true, EpochsPerLevel: 3, Stagger: 2},
	}
}

// TestWireConfigRoundtrip: the config on the Setup frame decodes to every
// field a peer's state derivation depends on, the grouping similarity
// included; a similarity byte that names no measure is refused.
func TestWireConfigRoundtrip(t *testing.T) {
	roundtrip := func(c dist.Config) (dist.Config, error) {
		var w cwriter
		encodeConfig(&w, c)
		r := creader{b: w.b}
		got := decodeConfig(&r)
		return got, r.done()
	}
	want := exampleConfig()
	if got, err := roundtrip(want); err != nil || got != want {
		t.Fatalf("config roundtrip:\n got %+v (%v)\nwant %+v", got, err, want)
	}
	// The zero config survives too (vanilla baseline), and so does the
	// explicit paper measure, as the nil default it equals.
	if got, err := roundtrip(dist.Config{}); err != nil || got != (dist.Config{}) {
		t.Fatalf("zero config roundtrip: %+v, %v", got, err)
	}
	semantic := dist.Config{Plan: core.PlanConfig{Grouping: core.GroupingConfig{Sim: core.SemanticSimilarity{}}}}
	if got, err := roundtrip(semantic); err != nil || got != (dist.Config{}) {
		t.Fatalf("semantic config roundtrip: %+v, %v", got, err)
	}
	var w cwriter
	encodeConfig(&w, want)
	// The similarity byte follows four bools, two int32s, a float64, two
	// int64s and the grouping's four int32s.
	w.b[4*1+2*4+8+2*8+4*4] = 2
	r := creader{b: w.b}
	decodeConfig(&r)
	if err := r.done(); !errors.Is(err, errBadControl) {
		t.Fatalf("similarity byte 2: got %v, want errBadControl", err)
	}
}

// TestControlRoundtrips: encode→decode is the identity on every message
// type, including empty-slice and error-string fields.
func TestControlRoundtrips(t *testing.T) {
	hello, err := decodeHello(encode(Hello{Sender: CoordID, Gen: 9}))
	if err != nil || hello.Sender != CoordID || hello.Gen != 9 {
		t.Fatalf("hello: %+v, %v", hello, err)
	}

	wantSetup := Setup{
		NParts: 3, Me: 2, Gen: 1,
		Addrs: []string{"a", "b", "c"},
		Nodes: 5,
		EdgeU: []int32{0, 3}, EdgeV: []int32{1, 4},
		Part: []int32{0, 0, 1, 2, 2},
		Cfg:  exampleConfig(),
	}
	gotSetup, err := decodeSetup(encode(wantSetup))
	if err != nil {
		t.Fatalf("setup decode: %v", err)
	}
	if gotSetup.Me != 2 || len(gotSetup.Addrs) != 3 || gotSetup.Addrs[2] != "c" ||
		len(gotSetup.EdgeU) != 2 || gotSetup.EdgeV[1] != 4 || gotSetup.Part[4] != 2 ||
		gotSetup.Cfg != wantSetup.Cfg {
		t.Fatalf("setup roundtrip: %+v", gotSetup)
	}

	ack, err := decodeAck(encode(Ack{Seq: 4, Err: "boom"}))
	if err != nil || ack.Seq != 4 || ack.Err != "boom" {
		t.Fatalf("ack: %+v, %v", ack, err)
	}

	ep, err := decodeEpoch(encode(Epoch{Epoch: 6, Eval: true}))
	if err != nil || ep.Epoch != 6 || !ep.Eval || ep.Levels != nil {
		t.Fatalf("epoch: %+v, %v", ep, err)
	}
	ep, err = decodeEpoch(encode(Epoch{Epoch: 4, Levels: []int32{0, 2, 1, 3}}))
	if err != nil || ep.Epoch != 4 || ep.Eval || len(ep.Levels) != 4 || ep.Levels[1] != 2 {
		t.Fatalf("epoch with levels: %+v, %v", ep, err)
	}

	rd, err := decodeRoundScratch(encode(Round{Seq: 2, Backward: true, Cols: 2,
		H: tensor.FromRows([][]float64{{9, 9}, {1, 2}, {3, 4}}), Rows: []int32{1, 2}}))
	if err != nil || !rd.Backward || rd.Cols != 2 || len(rd.H.Data) != 4 || rd.H.Data[3] != 4 || rd.Ordinal != 0 {
		t.Fatalf("round: %+v, %v", rd, err)
	}
	// A positive ordinal rides after the rows; ordinal 0 adds no bytes.
	plain := encode(Round{Seq: 2, Cols: 1, H: tensor.New(1, 1), Rows: []int32{0}})
	skipped := encode(Round{Seq: 2, Cols: 1, H: tensor.New(1, 1), Rows: []int32{0}, Ordinal: 3})
	if rd, err := decodeRoundScratch(skipped); err != nil || rd.Ordinal != 3 || len(skipped) != len(plain)+4 {
		t.Fatalf("round with ordinal: %+v, %v, %d bytes against %d", rd, err, len(skipped), len(plain))
	}

	// A RoundDone lands in the rows the receiver names, and only there.
	out := tensor.New(3, 1)
	work := simnet.Work{ComputeFlops: 40, QuantValues: 3, SampleEdges: 5, CacheValues: 7, SemanticValues: 11}
	var done RoundDone
	nout, err := decodeRoundDone(encode(RoundDone{Seq: 2, Out: tensor.FromRows([][]float64{{5}}),
		Tally: simnet.Tally{Bytes: []int64{0, 9}, Msgs: []int64{0, 1}, Work: work}}), &done, out, []int32{2})
	if err != nil || nout != 1 || out.Data[2] != 5 || out.Data[0] != 0 || done.Bytes[1] != 9 || done.Msgs[1] != 1 ||
		done.Work != work {
		t.Fatalf("round-done: %+v, %d, %v into %v", done, nout, err, out.Data)
	}
	// A float section of another size than the receiver expects is skipped,
	// counted, and the destination left alone.
	nout, err = decodeRoundDone(encode(RoundDone{Seq: 2, Err: "boom"}), &done, out, []int32{1})
	if err != nil || nout != 0 || out.Data[1] != 0 {
		t.Fatalf("round-done without rows: %d, %v into %v", nout, err, out.Data)
	}

	b, err := decodeBatch(encode(Batch{Seq: 3, From: 1, Data: []byte{7, 8}}))
	if err != nil || b.From != 1 || !bytes.Equal(b.Data, []byte{7, 8}) {
		t.Fatalf("batch: %+v, %v", b, err)
	}

	rp, err := decodeRepart(encode(Repart{Seq: 5, Part: []int32{1, 0}}))
	if err != nil || len(rp.Part) != 2 || rp.Part[0] != 1 {
		t.Fatalf("repart: %+v, %v", rp, err)
	}

	rpd, err := decodeRepartDone(encode(RepartDone{Seq: 5, Dirty: []int32{2}, Err: "x"}))
	if err != nil || rpd.Dirty[0] != 2 || rpd.Err != "x" {
		t.Fatalf("repart-done: %+v, %v", rpd, err)
	}

	st, err := decodeState(encode(State{Seq: 6, Blob: []byte{1}, Err: ""}))
	if err != nil || len(st.Blob) != 1 {
		t.Fatalf("state: %+v, %v", st, err)
	}

	sigs := []sched.Signals{
		{EFUnits: 1, EFCorrected: 9},
		{EFUnits: 4},
	}
	gotSig, err := decodeSchedSig(encode(SchedSig{Seq: 8, Signals: sigs}))
	if err != nil || gotSig.Seq != 8 || !slices.Equal(gotSig.Signals, sigs) {
		t.Fatalf("sched-sig: %+v, %v", gotSig, err)
	}
	// The request shape (no records, just a Seq) round-trips too.
	req, err := decodeSchedSig(encode(SchedSig{Seq: 9}))
	if err != nil || req.Seq != 9 || req.Signals != nil {
		t.Fatalf("sched-sig request: %+v, %v", req, err)
	}
}

// TestControlValidation: structural invariants beyond field framing are
// rejected with errBadControl.
func TestControlValidation(t *testing.T) {
	base := Setup{
		NParts: 2, Me: 0, Gen: 0,
		Addrs: []string{"a", "b"},
		Nodes: 3,
		EdgeU: []int32{0}, EdgeV: []int32{1},
		Part: []int32{0, 1, 1},
	}
	cases := map[string]func(Setup) Setup{
		"me-out-of-range": func(s Setup) Setup { s.Me = 2; return s },
		"negative-me":     func(s Setup) Setup { s.Me = -1; return s },
		"nparts-zero":     func(s Setup) Setup { s.NParts = 0; return s },
		"addr-count":      func(s Setup) Setup { s.Addrs = s.Addrs[:1]; return s },
		"edge-lengths":    func(s Setup) Setup { s.EdgeV = nil; return s },
		"edge-endpoint":   func(s Setup) Setup { s.EdgeU = []int32{5}; return s },
		"negative-endpnt": func(s Setup) Setup { s.EdgeU = []int32{-1}; return s },
		"part-length":     func(s Setup) Setup { s.Part = s.Part[:2]; return s },
		"negative-nodes":  func(s Setup) Setup { s.Nodes = -1; s.Part = nil; s.EdgeU = nil; s.EdgeV = nil; return s },
	}
	for name, mutate := range cases {
		if _, err := decodeSetup(encode(mutate(base))); !errors.Is(err, errBadControl) {
			t.Errorf("%s: err = %v, want errBadControl", name, err)
		}
	}

	if _, _, err := decodeRound(encode(Round{Cols: 0})); !errors.Is(err, errBadControl) {
		t.Errorf("round cols=0: %v", err)
	}
	if _, _, err := decodeRound(encode(Round{Cols: 3, H: tensor.New(1, 2), Rows: []int32{0}})); !errors.Is(err, errBadControl) {
		t.Errorf("round ragged h: %v", err)
	}
	// An ordinal written out as zero or negative is not the canonical form.
	for _, ord := range []int32{0, -2} {
		p := binary.LittleEndian.AppendUint32(encode(Round{Cols: 1}), uint32(ord))
		if _, _, err := decodeRound(p); !errors.Is(err, errBadControl) {
			t.Errorf("round ordinal %d written out: %v", ord, err)
		}
	}
	if _, _, err := decodeRound(append(encode(Round{Cols: 1}), 1, 0)); !errors.Is(err, errBadControl) {
		t.Errorf("round with a torn ordinal: %v", err)
	}
	if _, err := decodeRoundDoneScratch(encode(RoundDone{Tally: simnet.Tally{Bytes: []int64{1}}})); !errors.Is(err, errBadControl) {
		t.Errorf("round-done ragged traffic: %v", err)
	}
	// Trailing garbage after a complete message.
	if _, err := decodeHello(append(encode(Hello{}), 0)); !errors.Is(err, errBadControl) {
		t.Errorf("trailing bytes: %v", err)
	}
	// Truncated field.
	if _, err := decodeAck(encode(Ack{Err: "hello"})[:9]); !errors.Is(err, errBadControl) {
		t.Errorf("truncated ack: %v", err)
	}
	// Non-canonical bool.
	raw := encode(Epoch{Epoch: 1})
	raw[4] = 2
	if _, err := decodeEpoch(raw); !errors.Is(err, errBadControl) {
		t.Errorf("bad bool: %v", err)
	}
	// A sched signal record cut short: two records declared, one and a
	// half present.
	sig := encode(SchedSig{Signals: []sched.Signals{{EFUnits: 1}, {EFUnits: 2}}})
	if _, err := decodeSchedSig(append(sig[:8+4+16+8], sig[len(sig)-4:]...)); !errors.Is(err, errBadControl) {
		t.Errorf("torn sched-sig record: %v", err)
	}
	// Negative schedule level.
	if _, err := decodeEpoch(encode(Epoch{Levels: []int32{0, -1}})); !errors.Is(err, errBadControl) {
		t.Errorf("negative sched level: %v", err)
	}
}

// TestCoordRefusesHostileTally: the tally a node reports in its RoundDone is
// socket bytes. Traffic to itself, or a negative count, is a protocol error
// on the coordinator's side: it is not a panic in its fabric and it does not
// slip into the epoch snapshot.
func TestCoordRefusesHostileTally(t *testing.T) {
	const nparts = 2
	d, part, _ := testGraph(t, nparts)
	h, out := randMat(d.NumNodes(), 3, 1), tensor.New(d.NumNodes(), 3)
	for name, tamper := range map[string]func(*RoundDone){
		"clean":          func(*RoundDone) {},
		"self-bytes":     func(m *RoundDone) { m.Bytes[1] = 64 },
		"self-messages":  func(m *RoundDone) { m.Msgs[1] = 1 },
		"negative-bytes": func(m *RoundDone) { m.Bytes[0] = -64 },
		"negative-msgs":  func(m *RoundDone) { m.Msgs[0] = -1 },
		"negative-work":  func(m *RoundDone) { m.CacheValues = -5 },
	} {
		t.Run(name, func(t *testing.T) {
			c := NewCoordinator(make([]string, nparts), quickCoordOpts())
			c.g, c.part = d.Graph, part
			c.rebuildOwn()
			for i := range c.conns {
				a, b := stdnet.Pipe()
				defer a.Close()
				defer b.Close()
				c.conns[i] = &framed{conn: a}
				go func() {
					// The node side: one Round, one RoundDone reporting a
					// frame to the other node, tampered on node 1.
					fc := &framed{conn: b}
					_, p, err := fc.read()
					if err != nil {
						return
					}
					m, vals, err := decodeRound(p)
					if err != nil {
						return
					}
					done := RoundDone{Seq: m.Seq, Out: tensor.New(len(vals)/8/int(m.Cols), int(m.Cols)), Tally: simnet.NewTally(nparts)}
					done.Bytes[1-i], done.Msgs[1-i] = 64, 1
					if i == 1 {
						tamper(&done)
					}
					fc.write(frameRoundDone, done)
				}()
			}
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return c.AggregateInto(out, h, false)
			}()
			if name == "clean" {
				if s := c.CaptureEpoch(); err != nil || s.TotalBytes != 128 || s.MaxInboundMessages != 1 {
					t.Fatalf("clean round: %v, %+v", err, s)
				}
				return
			}
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("round with a hostile tally: %v, want ErrProtocol", err)
			}
			if s := c.CaptureEpoch(); s != (simnet.Snapshot{}) {
				t.Fatalf("a refused round reached the snapshot: %+v", s)
			}
		})
	}
}

// TestFrameReadWrite covers the framing layer directly: clean EOF between
// frames, torn reads mid-frame, the length bound, and multi-chunk payloads
// larger than one read quantum.
func TestFrameReadWrite(t *testing.T) {
	big := make([]byte, readChunkLen*2+17) // forces the chunked-growth path
	for i := range big {
		big[i] = byte(i)
	}
	stream := append(frame(frameBatch, big), frame(frameShutdown, nil)...)

	fc := framedOver(append([]byte(nil), stream...))
	ft, payload, err := fc.read()
	if err != nil || ft != frameBatch || !bytes.Equal(payload, big) {
		t.Fatalf("big frame: type %d, %d bytes, err %v", ft, len(payload), err)
	}
	ft, payload, err = fc.read()
	if err != nil || ft != frameShutdown || len(payload) != 0 {
		t.Fatalf("empty frame: type %d, %d bytes, err %v", ft, len(payload), err)
	}
	if _, _, err = fc.read(); err != io.EOF {
		t.Fatalf("clean close: err = %v, want io.EOF", err)
	}

	// Every strict prefix that cuts inside a frame is a torn read: draining
	// the prefix must end in io.ErrUnexpectedEOF, never a clean io.EOF.
	for _, cut := range []int{2, 4, 5, 100, len(stream) - 1} {
		cr := framedOver(append([]byte(nil), stream[:cut]...))
		var err error
		for err == nil {
			_, _, err = cr.read()
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}

	// Hostile length prefix: rejected before any payload allocation.
	huge := framedOver([]byte{0xff, 0xff, 0xff, 0xff, 1})
	if _, _, err := huge.read(); !errors.Is(err, errFrameTooLarge) || huge.rbuf != nil {
		t.Fatalf("huge length: err = %v, %d bytes committed", err, cap(huge.rbuf))
	}
	if _, _, err := framedOver([]byte{0, 0, 0, 0}).read(); !errors.Is(err, errZeroFrame) {
		t.Fatalf("zero length: err = %v", err)
	}
	if err := framedOver(nil).write(frameBatch, raw(make([]byte, maxFrameLen))); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized write: err = %v", err)
	}
}

// TestRetainedReader: the read buffer a connection keeps between frames
// gives up none of the guarantees a fresh buffer per frame had.
func TestRetainedReader(t *testing.T) {
	// (a) A prefix declaring 200 MiB, then 10 bytes and EOF: a fresh
	// connection commits one read chunk, not the declared length.
	torn := binary.LittleEndian.AppendUint32(nil, 200<<20)
	torn = append(torn, byte(frameBatch), 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	fc := framedOver(torn)
	if _, _, err := fc.read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("overdeclared frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if cap(fc.rbuf) > readChunkLen {
		t.Fatalf("overdeclared frame committed %d bytes, more than one %d-byte chunk", cap(fc.rbuf), readChunkLen)
	}

	// (b) A long frame then a short one: the short one decodes exactly, with
	// no stale tail of the long one behind it, and trailing bytes are still
	// trailing bytes.
	long := State{Seq: 1, Blob: bytes.Repeat([]byte{0xee}, 3*readChunkLen)}
	short := RepartDone{Seq: 2, Dirty: []int32{4, 7}}
	fc = framedOver(bytes.Join([][]byte{
		frame(frameState, encode(long)),
		frame(frameRepartDone, encode(short)),
		frame(frameHello, append(encode(Hello{Sender: 1, Gen: 2}), 0xee)),
	}, nil))
	_, payload, err := fc.read()
	st, derr := decodeState(payload)
	if err != nil || derr != nil || !bytes.Equal(st.Blob, long.Blob) {
		t.Fatalf("long frame: %v / %v", err, derr)
	}
	ft, payload, err := fc.read()
	if err != nil || ft != frameRepartDone || !bytes.Equal(payload, encode(short)) {
		t.Fatalf("short frame after long: type %d, payload %x, err %v", ft, payload, err)
	}
	rd, derr := decodeRepartDone(payload)
	if derr != nil || rd.Seq != 2 || len(rd.Dirty) != 2 || rd.Dirty[1] != 7 {
		t.Fatalf("short frame after long: %+v, %v", rd, derr)
	}
	// (c) What the decoders returned from earlier frames is theirs: reading
	// on overwrites the buffer, not the blob or the dirty set.
	_, payload, err = fc.read()
	if _, derr := decodeHello(payload); err != nil || !errors.Is(derr, errBadControl) {
		t.Fatalf("trailing byte after a long frame: read %v, decode %v", err, derr)
	}
	if !bytes.Equal(st.Blob, long.Blob) || rd.Dirty[0] != 4 || rd.Dirty[1] != 7 {
		t.Fatal("decoded state blob or dirty set changed when later frames were read")
	}
}

// TestMeshBatchOwnsData: a batch the mesh reader queued keeps its bytes while
// the reader moves on to later frames — until the round loop dequeues the next.
func TestMeshBatchOwnsData(t *testing.T) {
	a, b := stdnet.Pipe()
	defer a.Close()
	pc := newPeerConn(&framed{conn: b})
	defer b.Close()
	first := bytes.Repeat([]byte{1}, 64)
	second := bytes.Repeat([]byte{2}, 64)
	recycled := make(chan struct{})
	go func() {
		w := &framed{conn: a}
		w.write(frameBatch, Batch{Seq: 1, From: 0, Data: first})
		w.write(frameBatch, Batch{Seq: 2, From: 0, Data: second})
		<-recycled
		w.write(frameBatch, Batch{Seq: 3, From: 0, Data: first})
	}()
	q1, q2 := <-pc.queue, <-pc.queue
	if q1.err != nil || q2.err != nil || !bytes.Equal(q1.data, first) || !bytes.Equal(q2.data, second) {
		t.Fatalf("queued batches: %+v, %+v", q1, q2)
	}
	// Lent and lent over, the first batch's buffer is the one the third
	// arrives in.
	pc.lend(q1.data)
	pc.lend(q2.data)
	close(recycled)
	q3 := <-pc.queue
	if q3.err != nil || !bytes.Equal(q3.data, first) || !bytes.Equal(q2.data, second) {
		t.Fatalf("after recycling: %+v, second %x", q3, q2.data)
	}
	if &q3.data[0] != &q1.data[0] {
		t.Fatal("the recycled buffer was not reused")
	}
}
