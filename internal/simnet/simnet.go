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

// Tally is one sender's traffic and processing counters since it was last
// folded: Bytes[d] and Msgs[d] on its link to each destination d — bytes as
// measured off the encoded frames, framing included, and the messages they
// carry — and the Work its rounds did. Each worker writes only its own tally,
// so a parallel round never contends on shared counters; a runtime folds every
// tally into a Fabric after the round's barrier, or ships it to the one that
// keeps the fabric. Counters are plain int64 sums, so the fold order cannot
// change any total.
type Tally struct {
	Bytes, Msgs []int64
	Work
}

// NewTally returns an empty tally for a sender on an nparts-worker fabric.
func NewTally(nparts int) Tally {
	if nparts < 1 {
		panic(fmt.Sprintf("simnet: nparts = %d", nparts))
	}
	return Tally{Bytes: make([]int64, nparts), Msgs: make([]int64, nparts)}
}

// Send records a frame of the given bytes carrying msgs messages on the link
// to dst.
func (t *Tally) Send(dst int, bytes, msgs int64) {
	t.Bytes[dst] += bytes
	t.Msgs[dst] += msgs
}

// Clear zeroes the tally, keeping its slices.
func (t *Tally) Clear() {
	clear(t.Bytes)
	clear(t.Msgs)
	t.Work = Work{}
}

// Fabric records traffic between nparts workers: from[s] is everything
// worker s sent, and the processing its rounds did, since the last Reset.
type Fabric struct {
	from []Tally
}

// NewFabric returns a fabric for nparts workers.
func NewFabric(nparts int) *Fabric {
	if nparts < 1 {
		panic(fmt.Sprintf("simnet: nparts = %d", nparts))
	}
	f := &Fabric{from: make([]Tally, nparts)}
	for s := range f.from {
		f.from[s] = NewTally(nparts)
	}
	return f
}

// NumParts returns the worker count.
func (f *Fabric) NumParts() int { return len(f.from) }

// Reset clears all counters (called at epoch boundaries).
func (f *Fabric) Reset() {
	for s := range f.from {
		f.from[s].Clear()
	}
}

// Fold adds worker src's tally into the fabric and clears it — the per-round
// merge step of the runtimes, whose tallies outlive every round and must come
// back empty. Call it only after the barrier that ends the round which filled
// the tally. A tally for another fabric width, or one that sends to its own
// worker (local data never crosses the fabric), panics.
func (f *Fabric) Fold(src int, t *Tally) {
	if len(t.Bytes) != len(f.from) || len(t.Msgs) != len(f.from) {
		panic(fmt.Sprintf("simnet: fold a %d-link tally into a %d-part fabric", len(t.Bytes), len(f.from)))
	}
	if t.Bytes[src] != 0 || t.Msgs[src] != 0 {
		panic("simnet: self-send")
	}
	acc := &f.from[src]
	for d := range acc.Bytes {
		acc.Bytes[d] += t.Bytes[d]
		acc.Msgs[d] += t.Msgs[d]
	}
	acc.Work.Add(t.Work)
	t.Clear()
}

// TotalBytes returns the sum of all link bytes.
func (f *Fabric) TotalBytes() int64 {
	var t int64
	for _, s := range f.from {
		for _, b := range s.Bytes {
			t += b
		}
	}
	return t
}

// TotalMessages returns the sum of all link message counts.
func (f *Fabric) TotalMessages() int64 {
	var t int64
	for _, s := range f.from {
		for _, m := range s.Msgs {
			t += m
		}
	}
	return t
}

// LinkBytes returns the bytes sent on the ordered link s→t.
func (f *Fabric) LinkBytes(s, t int) int64 { return f.from[s].Bytes[t] }

// LinkMessages returns the messages sent on the ordered link s→t.
func (f *Fabric) LinkMessages(s, t int) int64 { return f.from[s].Msgs[t] }

// MaxInbound returns, over all workers, the maximum (bytes, msgs) arriving at
// one worker — the receive-side bottleneck, since links into distinct
// workers run in parallel.
func (f *Fabric) MaxInbound() (int64, int64) {
	var mb, mm int64
	for t := range f.from {
		var b, m int64
		for _, s := range f.from {
			b += s.Bytes[t]
			m += s.Msgs[t]
		}
		mb, mm = max(mb, b), max(mm, m)
	}
	return mb, mm
}

// MaxOutbound returns, over all workers, the maximum (bytes, msgs) leaving
// one worker — the send-side bottleneck: a worker's NIC serializes its own
// outgoing traffic even when the destinations differ.
func (f *Fabric) MaxOutbound() (int64, int64) {
	var mb, mm int64
	for _, s := range f.from {
		var b, m int64
		for t := range s.Bytes {
			b += s.Bytes[t]
			m += s.Msgs[t]
		}
		mb, mm = max(mb, b), max(mm, m)
	}
	return mb, mm
}

// Snapshot is a frozen copy of the fabric counters: the traffic and the
// processing counters a method accumulated during one epoch.
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

// Capture freezes the fabric counters into a snapshot: the link totals and
// bottlenecks, and the workers' processing counters summed in worker order.
func (f *Fabric) Capture() Snapshot {
	mb, mm := f.MaxInbound()
	ob, om := f.MaxOutbound()
	s := Snapshot{
		TotalBytes:          f.TotalBytes(),
		TotalMessages:       f.TotalMessages(),
		MaxInboundBytes:     mb,
		MaxInboundMessages:  mm,
		MaxOutboundBytes:    ob,
		MaxOutboundMessages: om,
	}
	for _, t := range f.from {
		s.Work.Add(t.Work)
	}
	return s
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
