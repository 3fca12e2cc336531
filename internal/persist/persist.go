// Package persist holds the reproduction's two on-disk formats: the
// checksummed checkpoint container (container.go) that the fleet's resume
// and state blobs ride in, and the JSON export of semantic compression plans
// that scgnn-inspect -out writes for external tooling.
package persist

import (
	"encoding/json"
	"fmt"
	"io"

	"scgnn/internal/core"
)

// PlanJSON is the JSON-facing shape of one semantic pair plan.
type PlanJSON struct {
	SrcPart          int         `json:"src_part"`
	DstPart          int         `json:"dst_part"`
	Groups           []GroupJSON `json:"groups"`
	O2O              [][2]int32  `json:"o2o,omitempty"`
	DroppedEdges     int         `json:"dropped_edges,omitempty"`
	CompressionRatio float64     `json:"compression_ratio"`
}

// GroupJSON is the JSON-facing shape of one semantic group.
type GroupJSON struct {
	SrcNodes []int32   `json:"src_nodes"`
	DstNodes []int32   `json:"dst_nodes"`
	WOut     []float64 `json:"w_out"`
	DDst     []float64 `json:"d_dst"`
	NumEdges int       `json:"num_edges"`
}

// ExportPlansJSON writes the plans as pretty JSON for external tooling.
func ExportPlansJSON(w io.Writer, plans []*core.PairPlan) error {
	out := make([]PlanJSON, 0, len(plans))
	for _, p := range plans {
		pj := PlanJSON{
			SrcPart:          p.SrcPart,
			DstPart:          p.DstPart,
			DroppedEdges:     p.DroppedEdges,
			CompressionRatio: p.CompressionRatio(),
		}
		for _, g := range p.Groups {
			pj.Groups = append(pj.Groups, GroupJSON{
				SrcNodes: g.SrcNodes, DstNodes: g.DstNodes,
				WOut: g.WOut, DDst: g.DDst, NumEdges: g.NumEdges,
			})
		}
		for _, o := range p.O2O {
			pj.O2O = append(pj.O2O, [2]int32{o.Src, o.Dst})
		}
		out = append(out, pj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("persist: encode plans: %w", err)
	}
	return nil
}
