// Package persist serializes the reproduction's artifacts — datasets,
// partition assignments, and semantic compression plans — so expensive
// offline steps (generation, partitioning, grouping) can be cached on disk
// and shared between the cmd tools. Gob is used for the lossless
// binary format; JSON export is provided for plan inspection by external
// tooling.
package persist

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/graph"
	"scgnn/internal/tensor"
)

// datasetWire is the gob-friendly flattening of datasets.Dataset.
type datasetWire struct {
	Name       string
	NumNodes   int
	Edges      []graph.Edge
	Features   []float64
	FeatureDim int
	Labels     []int
	NumClasses int
	Train, Val []bool
	Test       []bool
}

// SaveDataset writes ds to w in gob format.
func SaveDataset(w io.Writer, ds *datasets.Dataset) error {
	dw := datasetWire{
		Name:       ds.Name,
		NumNodes:   ds.NumNodes(),
		Edges:      ds.Graph.Edges(),
		Features:   ds.Features.Data,
		FeatureDim: ds.FeatureDim(),
		Labels:     ds.Labels,
		NumClasses: ds.NumClasses,
		Train:      ds.TrainMask,
		Val:        ds.ValMask,
		Test:       ds.TestMask,
	}
	if err := gob.NewEncoder(w).Encode(&dw); err != nil {
		return fmt.Errorf("persist: encode dataset: %w", err)
	}
	return nil
}

// LoadDataset reads a gob dataset written by SaveDataset.
func LoadDataset(r io.Reader) (*datasets.Dataset, error) {
	var dw datasetWire
	if err := gob.NewDecoder(r).Decode(&dw); err != nil {
		return nil, fmt.Errorf("persist: decode dataset: %w", err)
	}
	if dw.FeatureDim <= 0 || dw.NumNodes <= 0 {
		return nil, fmt.Errorf("persist: corrupt dataset header (%d nodes, dim %d)", dw.NumNodes, dw.FeatureDim)
	}
	if len(dw.Features) != dw.NumNodes*dw.FeatureDim {
		return nil, fmt.Errorf("persist: feature length %d, want %d", len(dw.Features), dw.NumNodes*dw.FeatureDim)
	}
	if len(dw.Labels) != dw.NumNodes || len(dw.Train) != dw.NumNodes {
		return nil, fmt.Errorf("persist: mask/label lengths inconsistent with %d nodes", dw.NumNodes)
	}
	ds := &datasets.Dataset{
		Name:  dw.Name,
		Graph: graph.New(dw.NumNodes, dw.Edges),
		Features: &tensor.Matrix{
			Rows: dw.NumNodes, Cols: dw.FeatureDim, Data: dw.Features,
		},
		Labels:     dw.Labels,
		NumClasses: dw.NumClasses,
		TrainMask:  dw.Train,
		ValMask:    dw.Val,
		TestMask:   dw.Test,
	}
	return ds, nil
}

// SaveDatasetFile writes the dataset to path. A failed Close fails the save:
// the file's last write may be what failed.
func SaveDatasetFile(path string, ds *datasets.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = SaveDataset(f, ds)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadDatasetFile reads a dataset from path.
func LoadDatasetFile(path string) (*datasets.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDataset(f)
}

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
