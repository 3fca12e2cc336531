// Package simnet provides the simulated interconnect used by the distributed
// training runtime: per-link byte and message accounting plus an analytic
// cost model that converts an epoch's traffic and per-method processing
// counters into a modeled epoch time.
//
// The paper's testbed is four RTX 4090s bridged by PyTorch's gloo backend.
// This reproduction replaces the physical fabric with exact accounting (every
// cross-partition payload is recorded at the byte level) and a calibrated
// linear time model: epoch time = compute + per-method processing overheads +
// max-over-links communication. The model's purpose is to reproduce the
// *shape* of Table 1 — which method wins, where the inversions are (delay and
// quantization can lose to vanilla despite moving fewer bytes) — not the
// absolute milliseconds of the authors' machines (see DESIGN.md §2).
package simnet

import "fmt"

// Fabric records traffic between nparts workers.
type Fabric struct {
	nparts int
	// bytes[s][t] and msgs[s][t] account the ordered link s→t.
	bytes [][]int64
	msgs  [][]int64
}

// NewFabric returns a fabric for nparts workers.
func NewFabric(nparts int) *Fabric {
	if nparts < 1 {
		panic(fmt.Sprintf("simnet: nparts = %d", nparts))
	}
	f := &Fabric{nparts: nparts, bytes: make([][]int64, nparts), msgs: make([][]int64, nparts)}
	for i := range f.bytes {
		f.bytes[i] = make([]int64, nparts)
		f.msgs[i] = make([]int64, nparts)
	}
	return f
}

// NumParts returns the worker count.
func (f *Fabric) NumParts() int { return f.nparts }

// Reset clears all counters (called at epoch boundaries).
func (f *Fabric) Reset() {
	for i := range f.bytes {
		for j := range f.bytes[i] {
			f.bytes[i][j] = 0
			f.msgs[i][j] = 0
		}
	}
}

// TotalBytes returns the sum of all link bytes.
func (f *Fabric) TotalBytes() int64 {
	var t int64
	for i := range f.bytes {
		for _, b := range f.bytes[i] {
			t += b
		}
	}
	return t
}

// TotalMessages returns the sum of all link message counts.
func (f *Fabric) TotalMessages() int64 {
	var t int64
	for i := range f.msgs {
		for _, m := range f.msgs[i] {
			t += m
		}
	}
	return t
}

// LinkBytes returns the bytes sent on the ordered link s→t.
func (f *Fabric) LinkBytes(s, t int) int64 { return f.bytes[s][t] }

// LinkMessages returns the messages sent on the ordered link s→t.
func (f *Fabric) LinkMessages(s, t int) int64 { return f.msgs[s][t] }

// MaxInbound returns, over all workers, the maximum (bytes, msgs) arriving at
// one worker — the receive-side bottleneck, since links into distinct
// workers run in parallel.
func (f *Fabric) MaxInbound() (int64, int64) {
	var mb, mm int64
	for t := 0; t < f.nparts; t++ {
		var b, m int64
		for s := 0; s < f.nparts; s++ {
			b += f.bytes[s][t]
			m += f.msgs[s][t]
		}
		if b > mb {
			mb = b
		}
		if m > mm {
			mm = m
		}
	}
	return mb, mm
}

// MaxOutbound returns, over all workers, the maximum (bytes, msgs) leaving
// one worker — the send-side bottleneck: a worker's NIC serializes its own
// outgoing traffic even when the destinations differ.
func (f *Fabric) MaxOutbound() (int64, int64) {
	var mb, mm int64
	for s := 0; s < f.nparts; s++ {
		var b, m int64
		for t := 0; t < f.nparts; t++ {
			b += f.bytes[s][t]
			m += f.msgs[s][t]
		}
		if b > mb {
			mb = b
		}
		if m > mm {
			mm = m
		}
	}
	return mb, mm
}

// ShardCounter accumulates link traffic privately on one goroutine so a
// parallel halo exchange never contends on the shared fabric: each shard
// records its own sends and the coordinator folds every shard into the
// fabric with Drain after the round's barrier. Counters are plain int64
// sums, so the drain order cannot change any total — parallel accounting
// stays bit-identical to sequential accounting.
type ShardCounter struct {
	nparts int
	// bytes/msgs are flattened [src*nparts+dst] link counters.
	bytes, msgs []int64
}

// NewShardCounter returns an empty shard for an nparts-worker fabric.
func NewShardCounter(nparts int) *ShardCounter {
	if nparts < 1 {
		panic(fmt.Sprintf("simnet: nparts = %d", nparts))
	}
	return &ShardCounter{
		nparts: nparts,
		bytes:  make([]int64, nparts*nparts),
		msgs:   make([]int64, nparts*nparts),
	}
}

// Add records traffic on the link src→dst: bytes as measured off the encoded
// frames, framing included, and the messages they carry. Self-sends are
// rejected: local data never crosses the fabric.
func (s *ShardCounter) Add(src, dst int, bytes, msgs int64) {
	if src == dst {
		panic("simnet: self-send")
	}
	s.bytes[src*s.nparts+dst] += bytes
	s.msgs[src*s.nparts+dst] += msgs
}

// DrainRow copies out and zeroes the counters of every link src→dst — the
// export step of a networked worker, which ships its own row's deltas to the
// coordinator after each round instead of draining into a local fabric,
// over bytes and msgs.
func (s *ShardCounter) DrainRow(src int, bytes, msgs []int64) ([]int64, []int64) {
	row := s.bytes[src*s.nparts : (src+1)*s.nparts]
	mrow := s.msgs[src*s.nparts : (src+1)*s.nparts]
	bytes, msgs = append(bytes[:0], row...), append(msgs[:0], mrow...)
	clear(row)
	clear(mrow)
	return bytes, msgs
}

// Drain folds a shard's counters into the fabric and zeroes the shard in the
// same pass — the per-round merge step of the runtimes, whose ShardCounter
// instances outlive every round and must come back empty. Call it only after
// the barrier that ends the parallel phase which filled the shard.
func (f *Fabric) Drain(s *ShardCounter) {
	if s.nparts != f.nparts {
		panic(fmt.Sprintf("simnet: drain shard for %d parts into %d-part fabric", s.nparts, f.nparts))
	}
	for src := 0; src < f.nparts; src++ {
		for dst := 0; dst < f.nparts; dst++ {
			i := src*s.nparts + dst
			f.bytes[src][dst] += s.bytes[i]
			f.msgs[src][dst] += s.msgs[i]
			s.bytes[i] = 0
			s.msgs[i] = 0
		}
	}
}

// Snapshot is a frozen copy of the fabric counters plus the processing
// counters a method accumulated during one epoch.
type Snapshot struct {
	TotalBytes, TotalMessages int64
	MaxInboundBytes           int64
	MaxInboundMessages        int64
	MaxOutboundBytes          int64
	MaxOutboundMessages       int64
	Work
}

// Work is a snapshot's processing counters, filled in by the runtime that
// ran the rounds (and the model's dense flops by the run loop). Each is an
// exact integer sum, so per-worker shares add up to the same totals in any
// order.
type Work struct {
	ComputeFlops   int64 // dense model compute (matmuls + aggregates)
	QuantValues    int64 // values pushed through the quantize/dequantize pair
	SampleEdges    int64 // cross edges scanned while rebuilding the sampled adjacency
	CacheValues    int64 // stale values read+written by delayed transmission
	SemanticValues int64 // values fused/delivered by semantic compression
}

// Add adds o's counters into w.
func (w *Work) Add(o Work) {
	w.ComputeFlops += o.ComputeFlops
	w.QuantValues += o.QuantValues
	w.SampleEdges += o.SampleEdges
	w.CacheValues += o.CacheValues
	w.SemanticValues += o.SemanticValues
}

// Capture freezes the fabric counters into a snapshot.
func (f *Fabric) Capture() Snapshot {
	mb, mm := f.MaxInbound()
	ob, om := f.MaxOutbound()
	return Snapshot{
		TotalBytes:          f.TotalBytes(),
		TotalMessages:       f.TotalMessages(),
		MaxInboundBytes:     mb,
		MaxInboundMessages:  mm,
		MaxOutboundBytes:    ob,
		MaxOutboundMessages: om,
	}
}

// CostModel converts a Snapshot into seconds. All rates are per unit.
//
// The default constants are calibrated (see calibration notes in
// internal/dist) so the per-method overheads reproduce the paper's Table 1
// orderings: quantization's codec pass and delay's cache churn are expensive
// enough to erase their volume savings on medium graphs, sampling pays an
// adjacency-rebuild cost, and semantic fusion is nearly free.
type CostModel struct {
	LatencyPerMsg float64 // seconds per message (per bottleneck worker)
	Bandwidth     float64 // bytes per second per link
	FlopTime      float64 // seconds per model flop
	QuantPerValue float64 // codec cost per quantized value (both ends)
	SamplePerEdge float64 // adjacency-rebuild cost per scanned cross edge
	CachePerValue float64 // memory-wall cost per stale value
	FusePerValue  float64 // semantic fuse/deliver cost per value
}

// DefaultCostModel mirrors a gloo-over-PCIe-class interconnect feeding GPU
// workers: ~12 GB/s effective link bandwidth, ~20 µs per message, and
// processing overheads dominated by memory traffic.
func DefaultCostModel() CostModel {
	return CostModel{
		LatencyPerMsg: 20e-6,
		Bandwidth:     12e9,
		FlopTime:      0.3e-9,
		QuantPerValue: 25e-9,
		SamplePerEdge: 35e-9,
		CachePerValue: 60e-9,
		FusePerValue:  2e-9,
	}
}

// EpochTime returns the modeled epoch seconds for a snapshot: compute +
// per-method processing overheads + the communication makespan bound
// max(receive bottleneck, send bottleneck) — the standard two-sided LogGP
// style lower bound on a fully connected fabric.
func (c CostModel) EpochTime(s Snapshot) float64 {
	in := c.LatencyPerMsg*float64(s.MaxInboundMessages) + float64(s.MaxInboundBytes)/c.Bandwidth
	out := c.LatencyPerMsg*float64(s.MaxOutboundMessages) + float64(s.MaxOutboundBytes)/c.Bandwidth
	comm := in
	if out > comm {
		comm = out
	}
	compute := c.FlopTime * float64(s.ComputeFlops)
	overhead := c.QuantPerValue*float64(s.QuantValues) +
		c.SamplePerEdge*float64(s.SampleEdges) +
		c.CachePerValue*float64(s.CacheValues) +
		c.FusePerValue*float64(s.SemanticValues)
	return compute + overhead + comm
}

// String renders the snapshot compactly.
func (s Snapshot) String() string {
	return fmt.Sprintf("bytes=%d msgs=%d maxIn=%d/%d flops=%d quant=%d sample=%d cache=%d fuse=%d",
		s.TotalBytes, s.TotalMessages, s.MaxInboundBytes, s.MaxInboundMessages,
		s.ComputeFlops, s.QuantValues, s.SampleEdges, s.CacheValues, s.SemanticValues)
}

// Named fabric profiles for the epoch-time sensitivity study (abl-fabric):
// the faster the interconnect, the smaller compression's epoch-time win —
// and vice versa for commodity Ethernet clusters.

// NVLinkProfile models an intra-node NVLink-class fabric: very high
// bandwidth, very low per-message latency.
func NVLinkProfile() CostModel {
	c := DefaultCostModel()
	c.Bandwidth = 150e9
	c.LatencyPerMsg = 3e-6
	return c
}

// PCIeProfile is the default gloo-over-PCIe-class profile.
func PCIeProfile() CostModel { return DefaultCostModel() }

// EthernetProfile models a 10 GbE commodity cluster: an order of magnitude
// less bandwidth and much higher per-message latency than PCIe.
func EthernetProfile() CostModel {
	c := DefaultCostModel()
	c.Bandwidth = 1.1e9
	c.LatencyPerMsg = 120e-6
	return c
}

// Profiles returns the named fabric profiles in fastest-first order.
func Profiles() map[string]CostModel {
	return map[string]CostModel{
		"nvlink":   NVLinkProfile(),
		"pcie":     PCIeProfile(),
		"ethernet": EthernetProfile(),
	}
}
