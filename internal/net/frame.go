// Package net is the multi-process transport of the distributed runtime:
// each partition runs as its own OS process (cmd/scgnn-node) holding a
// worker.Peer, exchanging length-prefixed wire.Batch frames over TCP or
// unix sockets, while a coordinator (cmd/scgnn-train -nodes, which trains
// through dist.Train) owns the model and drives the round barrier, epoch
// markers (which carry the schedule's decisions), Repartition plan swaps, and
// checkpoint/restore over a control channel.
//
// The in-process runtimes (dist.Engine, worker.Cluster) stay untouched as
// the correctness oracle: the equivalence tests in this package lock the
// socket deployment to them method-combo by method-combo.
//
// # Frame format
//
// Every message on every connection rides one frame:
//
//	u32 length  (little-endian; counts the type byte + payload)
//	u8  type    (frameType)
//	payload     (length-1 bytes, per-type codec in control.go)
//
// A frame is built in its connection's retained write buffer and written
// with a single Write call, so fault injection (and TCP segmentation
// analysis) can treat frame boundaries as the atomic unit. Lengths above
// maxFrameLen are rejected before any allocation, and a read grows the
// connection's retained buffer only chunk-by-chunk as bytes arrive, so a
// hostile length prefix can never inflate memory beyond the bytes delivered.
package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"slices"
)

// maxFrameLen bounds a frame's declared length (type byte + payload). Large
// graphs ship Setup frames with edge lists; 256 MiB covers million-node
// meshes while still rejecting absurd hostile lengths.
const maxFrameLen = 256 << 20

// frameType tags the payload codec of one frame.
type frameType uint8

const (
	frameHello      frameType = 1 + iota // identity + mesh generation, first frame on every conn
	frameSetup                           // coordinator → node: graph, partition, config, peer addresses
	frameAck                             // generic completion (+ optional error) for control requests
	frameEpoch                           // coordinator → node: epoch boundary / eval marker (+ the decided schedule levels)
	frameRound                           // coordinator → node: run one aggregate round (scattered h rows)
	frameRoundDone                       // node → coordinator: owned out rows + traffic and processing deltas (+ error)
	frameBatch                           // node → node: one wire.Batch buffer, sequence-tagged
	frameRepart                          // coordinator → node: repartition plan swap
	frameRepartDone                      // node → coordinator: dirty pair set (+ error)
	frameState                           // node → coordinator: checkpointed peer state blob
	frameRestore                         // coordinator → node: peer state blob to restore
	frameShutdown                        // coordinator → node: exit the serve loop
	frameSchedSig                        // coordinator → node: request per-pair scheduler signals; node replies in kind
)

var (
	errFrameTooLarge = errors.New("net: frame length exceeds limit")
	errZeroFrame     = errors.New("net: zero-length frame")
)

// framed is any connection of the package (control channel, mesh link, an
// in-memory stream in tests) with the one write buffer and the one read
// buffer it keeps between frames, so steady traffic allocates nothing.
//
// Ownership: write references nothing of the message once it returns. read
// returns a payload that aliases the read buffer and is valid only until the
// next read on the connection: control.go's decoders copy every slice and
// string they return, except Batch.Data, a view the mesh reader copies into
// a buffer of its own before queueing it (peerConn). One writer and one
// reader at a time; they may be different goroutines (write and read share
// no state).
type framed struct {
	conn stdnet.Conn
	w    cwriter
	hdr  [5]byte
	rbuf []byte
}

// encoder is a message that appends its payload to a frame being built.
type encoder interface{ encodeInto(w *cwriter) }

// write emits one frame, m's payload encoded straight into the write buffer
// behind the header (a nil m is the empty payload), with a single Write call.
func (f *framed) write(ft frameType, m encoder) error {
	f.w.b = append(f.w.b[:0], 0, 0, 0, 0, byte(ft))
	if m != nil {
		m.encodeInto(&f.w)
	}
	n := len(f.w.b) - 4
	if n > maxFrameLen {
		return fmt.Errorf("%w: %d > %d", errFrameTooLarge, n, maxFrameLen)
	}
	binary.LittleEndian.PutUint32(f.w.b, uint32(n))
	if _, err := f.conn.Write(f.w.b); err != nil {
		return fmt.Errorf("net: write frame: %w", err)
	}
	return nil
}

// readChunkLen is the growth quantum of the read buffer: memory is committed
// only as bytes arrive, never from the length prefix alone.
const readChunkLen = 64 << 10

// read reads one frame; the payload is valid until the next read. io.EOF is
// returned verbatim when the stream ends cleanly between frames; any
// mid-frame truncation surfaces as io.ErrUnexpectedEOF wrapped with context.
func (f *framed) read() (frameType, []byte, error) {
	if _, err := io.ReadFull(f, f.hdr[:4]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("net: read frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(f.hdr[:4]))
	if n < 1 {
		return 0, nil, errZeroFrame
	}
	if n > maxFrameLen {
		return 0, nil, fmt.Errorf("%w: %d > %d", errFrameTooLarge, n, maxFrameLen)
	}
	if _, err := io.ReadFull(f, f.hdr[4:5]); err != nil {
		return 0, nil, fmt.Errorf("net: read frame type: %w", unexpectedEOF(err))
	}
	remaining := n - 1
	f.rbuf = f.rbuf[:0]
	for len(f.rbuf) < remaining {
		if len(f.rbuf) == cap(f.rbuf) {
			f.rbuf = slices.Grow(f.rbuf, min(remaining-len(f.rbuf), readChunkLen))
		}
		start := len(f.rbuf)
		f.rbuf = f.rbuf[:min(remaining, cap(f.rbuf))]
		if _, err := io.ReadFull(f, f.rbuf[start:]); err != nil {
			return 0, nil, fmt.Errorf("net: read frame payload: %w", unexpectedEOF(err))
		}
	}
	return frameType(f.hdr[4]), f.rbuf, nil
}

// Read makes f io.ReadFull's reader: the connection would be converted at run
// time, through a type-assertion cache the runtime now and then reallocates.
func (f *framed) Read(p []byte) (int, error) { return f.conn.Read(p) }

// release drops both retained buffers. A connection calls it after the Setup
// frame, which carries the whole job's edge list: its steady frames carry one
// shard's rows and regrow the buffers to their own size, so keeping Setup's
// would pin megabytes for the life of the connection.
func (f *framed) release() { f.w.b, f.rbuf = nil, nil }

// unexpectedEOF normalizes a torn read: an EOF in the middle of a frame is
// a protocol violation, not a clean close.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
