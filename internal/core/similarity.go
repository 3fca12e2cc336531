// Package core implements SC-GNN's primary contribution (paper Sec. 3 and 4):
//
//   - the semantic similarity between boundary source nodes (Eq. 1) and its
//     vectorized form (Eq. 2), together with the Jaccard baseline it
//     improves on;
//   - cohesion-driven node grouping: k-means in the distance space expanded
//     by the similarity, with the group count picked at the elbow
//     equilibrium point (EEP);
//   - in-group up-sampling compression: approximating a group's edge set by
//     its full bipartite map and collapsing all of the group's messages into
//     one semantic message, weighted by local-SALSA (L-SALSA) node weights;
//   - the connection-type differential optimization that routes O2M/M2O
//     connections as natural groups, compresses M2M connections after
//     grouping, and optionally prunes O2O connections entirely;
//   - the communication plan that packages all of the above for one ordered
//     partition pair, ready to drive both the forward (embedding) and the
//     backward (gradient) halo exchange.
package core

// Similarity is a pairwise cohesion measure over the source side of a DBG.
// Implementations must be symmetric and non-negative.
type Similarity interface {
	// Score returns the cohesion of two source nodes with ni and nj sink
	// neighbours, inter of them shared. A score is a function of these three
	// cardinalities only, so the embedding fill counts the intersections and
	// no measure walks a neighbour list.
	Score(inter, ni, nj int) float64
	// Name identifies the measure in reports ("semantic", "jaccard").
	Name() string
}

// SemanticSimilarity is the paper's measure (Eq. 1):
//
//	S(u1,u2) = |N(u1) ∩ N(u2)|² / (|N(u1)| + |N(u2)|)
//
// The squared numerator distinguishes fully connected DBGs of different
// sizes (Fig. 3(b)) and super-linearly amplifies strong cohesion while still
// excluding non-cohesion exactly like Jaccard (Sec. 3.1, "selective
// highlight of cohesion").
//
// This is the vectorized form of Eq. 2: the intersection cardinality is the
// inner product A_u1·A_u2ᵀ, which the embedding fill counts for a whole pool
// row at once, and the denominator reads the row-count vector C_A (the CSR
// offsets).
type SemanticSimilarity struct{}

// Score implements Similarity.
func (SemanticSimilarity) Score(inter, ni, nj int) float64 {
	den := ni + nj
	if den == 0 {
		return 0
	}
	in := float64(inter)
	return in * in / float64(den)
}

// Name implements Similarity.
func (SemanticSimilarity) Name() string { return "semantic" }

// JaccardSimilarity is the traditional baseline the paper compares against:
//
//	J(u1,u2) = |N(u1) ∩ N(u2)| / |N(u1) ∪ N(u2)|
//
// It cannot discern fully connected DBGs of different sizes: a "2-to-2" and
// a "2-to-3" full map both score 1 (Fig. 3(b)). The union is ni + nj − inter.
type JaccardSimilarity struct{}

// Score implements Similarity.
func (JaccardSimilarity) Score(inter, ni, nj int) float64 {
	union := ni + nj - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Name implements Similarity.
func (JaccardSimilarity) Name() string { return "jaccard" }

// SlidingCohesion reproduces the window-sliding experiment of Fig. 4(a): two
// rows of width bits, each with a window of `valid` consecutive set bits; the
// first row's window slides from offset 0 to width-valid while the second
// stays fixed at the left edge. It returns the similarity at every offset:
// at offset off the windows share valid−off bits.
//
// With the semantic measure the curve is super-linearly peaked where the
// windows overlap most; with Jaccard the peak is linear.
func SlidingCohesion(width, valid int, s Similarity) []float64 {
	if valid > width {
		valid = width
	}
	out := make([]float64, 0, width-valid+1)
	for off := 0; off+valid <= width; off++ {
		out = append(out, s.Score(max(valid-off, 0), valid, valid))
	}
	return out
}
