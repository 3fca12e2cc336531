package core

import "fmt"

// Group is one semantic compression unit g_i = (U_i, V_i, E_{U_i→V_i})
// (paper Sec. 3.2/3.3). During the aggregate all of the group's
// node-to-node messages collapse into one semantic message
//
//	h_g = Σ_{u∈U_i} w(u)·h_u          (fusion, Fig. 7(b) line 2)
//
// transmitted once, then disassembled at the target as
//
//	Ŝ_v = |E|·w(v)·h_g = D(v)·h_g     (delivery, Fig. 7(b) line 6)
//
// where the L-SALSA weights are w(u) = D(u)/|E| and w(v) = D(v)/|E| with
// D(·) the node's degree *within the group* (Sec. 3.3, "local SALSA").
//
// The approximation replaces the group's true edge set E by the full map F
// and conserves total mass exactly: Σ_v Ŝ_v = Σ_u D(u)·h_u = Σ_v S_v, i.e.
// compression only redistributes contribution within the group in proportion
// to connection strength.
type Group struct {
	// SrcNodes and DstNodes are global node ids of U_i and V_i.
	SrcNodes []int32
	DstNodes []int32
	// WOut[k] = w(SrcNodes[k]): out-weight (in-group degree / |E|).
	WOut []float64
	// DDst[k] = D(DstNodes[k]): in-group degree of the sink; the delivery
	// coefficient |E|·w(v).
	DDst []float64
	// NumEdges is |E_{U_i→V_i}|, the group's true (pre-up-sampling) edge
	// count — also the number of messages the group saves minus one.
	NumEdges int
}

// Validate checks the structural invariants of a group: non-empty sides,
// out-weights summing to 1, and delivery degrees summing to |E|.
func (g *Group) Validate() error {
	if len(g.SrcNodes) == 0 || len(g.DstNodes) == 0 {
		return fmt.Errorf("core: group has empty side (%d src, %d dst)", len(g.SrcNodes), len(g.DstNodes))
	}
	if len(g.WOut) != len(g.SrcNodes) || len(g.DDst) != len(g.DstNodes) {
		return fmt.Errorf("core: weight lengths (%d,%d) mismatch node lengths (%d,%d)",
			len(g.WOut), len(g.DDst), len(g.SrcNodes), len(g.DstNodes))
	}
	var wsum, dsum float64
	for _, w := range g.WOut {
		if w < 0 {
			return fmt.Errorf("core: negative out-weight %v", w)
		}
		wsum += w
	}
	for _, d := range g.DDst {
		if d < 0 {
			return fmt.Errorf("core: negative delivery degree %v", d)
		}
		dsum += d
	}
	if diff := wsum - 1; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("core: out-weights sum to %v, want 1", wsum)
	}
	if diff := dsum - float64(g.NumEdges); diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("core: delivery degrees sum to %v, want %d", dsum, g.NumEdges)
	}
	return nil
}

// CompressionRatio returns the group's message-count compression: the number
// of per-edge messages the vanilla aggregate would send divided by the one
// semantic message this group sends.
func (g *Group) CompressionRatio() float64 {
	return float64(g.NumEdges)
}

// Reverse returns the group for the opposite traffic direction, used during
// the backward pass when gradients flow sink→source (paper Sec. 2.1: the
// aggregate exchanges embeddings forward and gradients backward over the
// same structure). Roles swap: sinks fuse with w(v) = D(v)/|E| and sources
// receive with delivery degree D(u).
func (g *Group) Reverse() *Group {
	r := &Group{
		SrcNodes: g.DstNodes,
		DstNodes: g.SrcNodes,
		WOut:     make([]float64, len(g.DDst)),
		DDst:     make([]float64, len(g.WOut)),
		NumEdges: g.NumEdges,
	}
	if g.NumEdges > 0 {
		inv := 1 / float64(g.NumEdges)
		for k, d := range g.DDst {
			r.WOut[k] = d * inv
		}
		for k, w := range g.WOut {
			r.DDst[k] = w * float64(g.NumEdges)
		}
	}
	return r
}

// uniformWeights overwrites a group's L-SALSA weights with the uniform
// ablation: every source contributes equally and every sink receives an
// equal share of the group's total mass.
func uniformWeights(g *Group) {
	for k := range g.WOut {
		g.WOut[k] = 1 / float64(len(g.SrcNodes))
	}
	for k := range g.DDst {
		g.DDst[k] = float64(g.NumEdges) / float64(len(g.DstNodes))
	}
}

// newGroup builds a Group from explicit member lists and per-node in-group
// degrees. srcDeg/dstDeg must align with srcNodes/dstNodes; edges is the
// group's true edge count.
func newGroup(srcNodes, dstNodes []int32, srcDeg, dstDeg []int, edges int) *Group {
	g := &Group{
		SrcNodes: srcNodes,
		DstNodes: dstNodes,
		WOut:     make([]float64, len(srcNodes)),
		DDst:     make([]float64, len(dstNodes)),
		NumEdges: edges,
	}
	if edges > 0 {
		inv := 1 / float64(edges)
		for k, d := range srcDeg {
			g.WOut[k] = float64(d) * inv
		}
	}
	for k, d := range dstDeg {
		g.DDst[k] = float64(d)
	}
	return g
}
