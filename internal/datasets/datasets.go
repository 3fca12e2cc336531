// Package datasets generates the synthetic graph-learning datasets used
// throughout the reproduction.
//
// The paper evaluates on Reddit, Yelp, Ogbn-products, and PubMed. Those
// datasets cannot be downloaded in this offline environment, so each is
// replaced by a generator matched to the properties the experiments actually
// exercise (see DESIGN.md §2):
//
//   - relative edge density — Reddit is far denser than Yelp/Ogbn-products,
//     which are far denser than PubMed (Fig. 12(a) hinges on exactly this
//     ordering);
//   - community structure with homophilous edges, which simultaneously
//     (a) makes GCN training meaningful (accuracy tables) and (b) produces
//     the cohesive many-to-many boundary structure semantic grouping
//     exploits (Fig. 2(d), Fig. 10);
//   - label-correlated Gaussian features with a controlled noise level, so
//     test accuracy degrades smoothly under lossy aggregation;
//   - skewed intra-community degrees (preferential attachment within the
//     community), giving realistic hub-dominated boundary graphs.
package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"scgnn/internal/graph"
	"scgnn/internal/tensor"
)

// Dataset is a full-batch node-classification dataset.
type Dataset struct {
	Name  string
	Graph *graph.Graph // undirected: both arc directions present
	// Features is the N×F node feature matrix.
	Features *tensor.Matrix
	// Labels[i] in [0, NumClasses).
	Labels     []int
	NumClasses int
	// Train/Val/Test masks partition the nodes.
	TrainMask, ValMask, TestMask []bool
}

// NumNodes returns the node count.
func (d *Dataset) NumNodes() int { return d.Graph.NumNodes() }

// FeatureDim returns F.
func (d *Dataset) FeatureDim() int { return d.Features.Cols }

// CountMask returns how many entries of mask are set.
func CountMask(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// Spec parameterizes the generator.
type Spec struct {
	Name string
	// Nodes is the node count N.
	Nodes int
	// AvgDegree is the target mean undirected degree.
	AvgDegree float64
	// Classes is the number of node classes (== communities).
	Classes int
	// FeatureDim is F.
	FeatureDim int
	// Homophily is the probability that an edge endpoint pair shares a
	// class (0.5 = none, 1 = perfectly assortative). Default 0.8.
	Homophily float64
	// FeatureNoise is the Gaussian noise σ added on top of the class mean
	// (class means are unit-scale). Default 1.0.
	FeatureNoise float64
	// HubExponent skews intra-class degree: endpoint ranks are drawn with
	// density ∝ rank^(-HubExponent). 0 disables skew. Default 0.6.
	HubExponent float64
	// LabelNoise replaces this fraction of recorded labels with a uniformly
	// random class *after* features and edges are generated. It caps the
	// attainable accuracy at ≈ 1 − LabelNoise·(C−1)/C, which is how the
	// registry calibrates each benchmark to its paper-reported accuracy
	// (Reddit ≈97%, Yelp ≈65%, Ogbn-products ≈79%, PubMed ≈77%). Default 0.
	LabelNoise float64
	// TrainFrac/ValFrac control the split (test gets the remainder).
	// Defaults 0.6/0.2.
	TrainFrac, ValFrac float64
	// Seed makes generation deterministic.
	Seed int64
}

func (s Spec) withDefaults() Spec {
	if s.Homophily == 0 {
		s.Homophily = 0.8
	}
	if s.FeatureNoise == 0 {
		s.FeatureNoise = 1.0
	}
	if s.HubExponent == 0 {
		s.HubExponent = 0.6
	}
	if s.TrainFrac == 0 {
		s.TrainFrac = 0.6
	}
	if s.ValFrac == 0 {
		s.ValFrac = 0.2
	}
	return s
}

// Validate reports the first size Generate cannot build from: fewer than
// two nodes or classes, no feature dimension, or an average degree that is
// negative, not a number, or beyond the nodes − 1 a simple graph can reach.
func (s Spec) Validate() error {
	switch {
	case s.Nodes < 2:
		return fmt.Errorf("datasets: nodes %d, want 2 or more", s.Nodes)
	case s.Classes < 2:
		return fmt.Errorf("datasets: classes %d, want 2 or more", s.Classes)
	case s.FeatureDim < 1:
		return fmt.Errorf("datasets: dim %d, want 1 or more", s.FeatureDim)
	case !(s.AvgDegree >= 0 && s.AvgDegree <= float64(s.Nodes-1)):
		return fmt.Errorf("datasets: degree %v, want 0 to %d", s.AvgDegree, s.Nodes-1)
	}
	return nil
}

// Generate builds a dataset from the spec. It panics on a spec Validate
// refuses.
func Generate(spec Spec) *Dataset {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	n := spec.Nodes

	// Labels: contiguous blocks per class (sizes as equal as possible),
	// then shuffled node ids would lose block locality — we keep block
	// layout because community locality is what real partitioned graphs
	// exhibit, and the partitioners are free to split however they like.
	labels := make([]int, n)
	members := make([][]int32, spec.Classes)
	for i := 0; i < n; i++ {
		c := i * spec.Classes / n
		labels[i] = c
		members[c] = append(members[c], int32(i))
	}

	// Edges: E_undirected = N·d/2 target *distinct* pairs, streamed straight
	// into the CSR builder (no []graph.Edge is ever materialized).
	g := sampleGraph(spec, members, rng)

	// Features: x_i = μ_{y_i} + σ·N(0,I) with random ±1 class means.
	means := tensor.New(spec.Classes, spec.FeatureDim)
	for i := range means.Data {
		if rng.Intn(2) == 0 {
			means.Data[i] = 1
		} else {
			means.Data[i] = -1
		}
	}
	feats := tensor.New(n, spec.FeatureDim)
	for i := 0; i < n; i++ {
		mu := means.Row(labels[i])
		row := feats.Row(i)
		for j := range row {
			row[j] = mu[j] + spec.FeatureNoise*rng.NormFloat64()
		}
	}

	// Label corruption: features/edges above reflect the *true* community;
	// the recorded label of a LabelNoise fraction of nodes is re-rolled
	// uniformly, capping attainable accuracy.
	if spec.LabelNoise > 0 {
		for i := 0; i < n; i++ {
			if rng.Float64() < spec.LabelNoise {
				labels[i] = rng.Intn(spec.Classes)
			}
		}
	}

	// Splits: per-node random assignment with fixed fractions.
	train := make([]bool, n)
	val := make([]bool, n)
	test := make([]bool, n)
	perm := rng.Perm(n)
	nTrain := int(spec.TrainFrac * float64(n))
	nVal := int(spec.ValFrac * float64(n))
	for i, p := range perm {
		switch {
		case i < nTrain:
			train[p] = true
		case i < nTrain+nVal:
			val[p] = true
		default:
			test[p] = true
		}
	}

	return &Dataset{
		Name:       spec.Name,
		Graph:      g,
		Features:   feats,
		Labels:     labels,
		NumClasses: spec.Classes,
		TrainMask:  train,
		ValMask:    val,
		TestMask:   test,
	}
}

// sampleGraph draws the spec's edge sample and streams it into the flat CSR
// builder. Duplicate draws and self-loops are rejected *at sampling time*
// (the dedup set below), so every accepted pair is a distinct undirected
// edge and the realized average degree tracks Spec.AvgDegree instead of
// silently drifting below it on dense specs — previously duplicates counted
// toward the target but were then dropped inside graph.New, which broke the
// Fig. 12(a) density ordering at scaled presets. The stream protocol: the
// first invocation samples (consuming rng) while recording accepted pairs in
// the dedup set; the CSR builder's second (fill) pass replays the set
// instead of resampling, so the full edge slice never exists.
func sampleGraph(spec Spec, members [][]int32, rng *rand.Rand) *graph.Graph {
	n := spec.Nodes
	target := int(float64(n) * spec.AvgDegree / 2)
	set := newEdgeSet(target)
	sampled := false
	stream := func(emit func(u, v int32)) {
		if sampled {
			set.each(emit)
			return
		}
		sampled = true
		// Dense specs near the attainable distinct-pair ceiling could retry
		// forever; cap total draws so generation always terminates (the 2%
		// realized-degree contract only covers specs with headroom).
		maxDraws := 30*target + 1000
		for draws := 0; set.size < target && draws < maxDraws; draws++ {
			cu := rng.Intn(spec.Classes)
			u := pickSkewed(members[cu], spec.HubExponent, rng)
			var v int32
			if rng.Float64() < spec.Homophily {
				v = pickSkewed(members[cu], spec.HubExponent, rng)
			} else {
				cv := rng.Intn(spec.Classes - 1)
				if cv >= cu {
					cv++
				}
				v = pickSkewed(members[cv], spec.HubExponent, rng)
			}
			if u == v || !set.add(u, v) {
				continue
			}
			emit(u, v)
		}
	}
	return graph.NewUndirectedFromStream(n, stream)
}

// edgeSet is an open-addressed hash set of undirected node pairs, keyed by
// (min<<32 | max). It is both the sampling-time dedup filter and the retained
// edge store the CSR fill pass replays — ~12 bytes per edge instead of the
// doubled []Edge the old path built. Key 0 would be the self-loop (0,0),
// which is never inserted, so 0 doubles as the empty-slot sentinel.
type edgeSet struct {
	slots []uint64
	mask  uint64
	size  int
}

func newEdgeSet(capacity int) *edgeSet {
	sz := 16
	for sz < capacity*3/2 {
		sz *= 2
	}
	return &edgeSet{slots: make([]uint64, sz), mask: uint64(sz - 1)}
}

// add inserts the undirected pair {u,v}; it reports false when already
// present. Orientation is canonicalized, so (u,v) and (v,u) collide.
func (s *edgeSet) add(u, v int32) bool {
	if u > v {
		u, v = v, u
	}
	key := uint64(uint32(u))<<32 | uint64(uint32(v))
	if s.size*3 >= len(s.slots)*2 {
		s.grow()
	}
	i := s.probe(key)
	if s.slots[i] == key {
		return false
	}
	s.slots[i] = key
	s.size++
	return true
}

// probe returns the slot holding key, or the empty slot where it belongs
// (splitmix64-style finalizer spreads the sequential node-id structure).
func (s *edgeSet) probe(key uint64) uint64 {
	h := key
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		if s.slots[i] == 0 || s.slots[i] == key {
			return i
		}
	}
}

func (s *edgeSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	s.mask = uint64(len(s.slots) - 1)
	for _, key := range old {
		if key != 0 {
			s.slots[s.probe(key)] = key
		}
	}
}

// each emits every stored pair as (min, max), in table order — deterministic
// for a given insertion sequence, and order-free for the undirected CSR
// builder, which sorts adjacency after its fill pass.
func (s *edgeSet) each(emit func(u, v int32)) {
	for _, key := range s.slots {
		if key != 0 {
			emit(int32(key>>32), int32(uint32(key)))
		}
	}
}

// pickSkewed draws a member with density ∝ (rank+1)^(-alpha): rank 0 is the
// community hub. alpha==0 degenerates to uniform.
func pickSkewed(members []int32, alpha float64, rng *rand.Rand) int32 {
	m := len(members)
	if m == 1 {
		return members[0]
	}
	if alpha <= 0 {
		return members[rng.Intn(m)]
	}
	// Inverse-CDF sampling of rank^(−alpha) via the power transform:
	// r = floor(m · u^(1/(1−alpha))) approximates a Zipf-like rank draw for
	// alpha<1; clamp for safety.
	u := rng.Float64()
	r := int(float64(m) * math.Pow(u, 1/(1-alpha)))
	if r >= m {
		r = m - 1
	}
	return members[r]
}
