package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// MarshalPlans renders a plan set into a canonical byte form: every field
// that affects training — group memberships, L-SALSA weights, O2O edges,
// drop accounting — plus the grouping's provenance (chosen K, inertia curve,
// pool, assignment, embedding digest). Floats are serialized as the hex of
// their IEEE-754 bit pattern, so two plan sets marshal equal iff they are
// bit-identical; that makes this the equality oracle for the metamorphic
// plan-equivalence suite, the golden snapshot test, and the abl-replan
// ablation. The encoding is line-oriented and stable — changing it
// invalidates the checked-in golden snapshot, which is the point.
func MarshalPlans(plans []*PairPlan) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "plans %d\n", len(plans))
	for _, p := range plans {
		marshalPlan(&buf, p)
	}
	return buf.Bytes()
}

func marshalPlan(buf *bytes.Buffer, p *PairPlan) {
	fmt.Fprintf(buf, "pair %d %d drop=%s dropped=%d\n", p.SrcPart, p.DstPart, p.Drop, p.DroppedEdges)
	gr := p.Grouping
	fmt.Fprintf(buf, " grouping k=%d natural=%d inertia=%s dbg=%dx%d/%d\n",
		gr.K, gr.NaturalGroups, hexFloat(gr.Inertia),
		gr.NumSrc, gr.NumDst, gr.NumEdges)
	writeFloats(buf, " curve", gr.InertiaCurve)
	writeInts(buf, " pool", gr.PoolSrc)
	writeInts(buf, " assign", gr.Assign)
	if gr.Embedding != nil {
		h := fnv.New64a()
		var w [8]byte
		for i := 0; i < gr.Embedding.Rows; i++ {
			for _, x := range gr.Embedding.Row(i) {
				bits := math.Float64bits(x)
				for k := range w {
					w[k] = byte(bits >> (8 * k))
				}
				h.Write(w[:])
			}
		}
		fmt.Fprintf(buf, " embedding %dx%d fnv=%016x\n",
			gr.Embedding.Rows, gr.Embedding.Cols, h.Sum64())
	}
	fmt.Fprintf(buf, " groups %d\n", len(p.Groups))
	for _, g := range p.Groups {
		fmt.Fprintf(buf, "  group edges=%d\n", g.NumEdges)
		writeInt32s(buf, "   src", g.SrcNodes)
		writeInt32s(buf, "   dst", g.DstNodes)
		writeFloats(buf, "   wout", g.WOut)
		writeFloats(buf, "   ddst", g.DDst)
	}
	fmt.Fprintf(buf, " o2o %d\n", len(p.O2O))
	for _, e := range p.O2O {
		fmt.Fprintf(buf, "  %d %d\n", e.Src, e.Dst)
	}
}

// hexFloat encodes a float as the hex of its IEEE-754 bit pattern, so equal
// strings mean bit-equal values (no rounding slack).
func hexFloat(f float64) string {
	return strconv.FormatUint(math.Float64bits(f), 16)
}

func writeFloats(buf *bytes.Buffer, label string, xs []float64) {
	buf.WriteString(label)
	for _, x := range xs {
		buf.WriteByte(' ')
		buf.WriteString(hexFloat(x))
	}
	buf.WriteByte('\n')
}

func writeInts(buf *bytes.Buffer, label string, xs []int) {
	buf.WriteString(label)
	for _, x := range xs {
		buf.WriteByte(' ')
		buf.WriteString(strconv.Itoa(x))
	}
	buf.WriteByte('\n')
}

func writeInt32s(buf *bytes.Buffer, label string, xs []int32) {
	buf.WriteString(label)
	for _, x := range xs {
		buf.WriteByte(' ')
		buf.WriteString(strconv.Itoa(int(x)))
	}
	buf.WriteByte('\n')
}
