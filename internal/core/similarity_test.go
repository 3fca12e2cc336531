package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mergeCount is the test side's intersection count: a two-pointer merge of
// two strictly ascending index lists.
func mergeCount[T int | int32](a, b []T) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// score rates two explicit ascending neighbour lists under s.
func score(s Similarity, a, b []int) float64 {
	return s.Score(mergeCount(a, b), len(a), len(b))
}

func TestSemanticSimilarityEq1(t *testing.T) {
	// N(u1) = {0,1,2}, N(u2) = {1,2,3}: inter=2, den=6 → 4/6.
	got := score(SemanticSimilarity{}, []int{0, 1, 2}, []int{1, 2, 3})
	if want := 4.0 / 6.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("S = %v, want %v", got, want)
	}
}

func TestJaccardSimilarity(t *testing.T) {
	got := score(JaccardSimilarity{}, []int{0, 1, 2}, []int{1, 2, 3})
	if want := 2.0 / 4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("J = %v, want %v", got, want)
	}
}

// TestFullConnectedDiscrimination reproduces Fig. 3(b): Jaccard scores the
// 2-to-2 and 2-to-3 full maps identically, the semantic measure ranks the
// denser map strictly higher.
func TestFullConnectedDiscrimination(t *testing.T) {
	full22, full23 := []int{0, 1}, []int{0, 1, 2}
	j22 := score(JaccardSimilarity{}, full22, full22)
	j23 := score(JaccardSimilarity{}, full23, full23)
	if j22 != j23 {
		t.Fatalf("Jaccard should be indistinguishable: %v vs %v", j22, j23)
	}
	s22 := score(SemanticSimilarity{}, full22, full22)
	s23 := score(SemanticSimilarity{}, full23, full23)
	if s23 <= s22 {
		t.Fatalf("semantic must rank 2-to-3 (%v) above 2-to-2 (%v)", s23, s22)
	}
	// Exact values: 2²/4 = 1 and 3²/6 = 1.5.
	if s22 != 1 || s23 != 1.5 {
		t.Fatalf("semantic values %v, %v; want 1, 1.5", s22, s23)
	}
}

func TestZeroNeighborEdgeCases(t *testing.T) {
	if got := (SemanticSimilarity{}).Score(0, 0, 0); got != 0 {
		t.Fatalf("empty rows semantic = %v", got)
	}
	if got := (JaccardSimilarity{}).Score(0, 0, 0); got != 0 {
		t.Fatalf("empty rows jaccard = %v", got)
	}
}

func TestDisjointNeighborhoodsExcluded(t *testing.T) {
	// Non-cohesion must score 0 under both measures (paper: "non-cohesion is
	// still excluded as the Jaccard method").
	a, b := []int{0, 1, 2}, []int{3, 4, 5}
	if score(SemanticSimilarity{}, a, b) != 0 || score(JaccardSimilarity{}, a, b) != 0 {
		t.Fatal("disjoint neighborhoods must score 0")
	}
}

// Property: the cardinality form (Eq. 2) equals the set form Eq. 1, and
// both measures are symmetric and non-negative.
func TestSimilarityProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(120)
		rows := make([][]int, 2)
		n1 := map[int]bool{}
		n2 := map[int]bool{}
		for j := 0; j < cols; j++ {
			if rng.Intn(3) == 0 {
				rows[0] = append(rows[0], j)
				n1[j] = true
			}
			if rng.Intn(3) == 0 {
				rows[1] = append(rows[1], j)
				n2[j] = true
			}
		}
		s := SemanticSimilarity{}
		v12, v21 := score(s, rows[0], rows[1]), score(s, rows[1], rows[0])
		if v12 != v21 || v12 < 0 {
			return false
		}
		if math.Abs(v12-SemanticScoreSets(n1, n2)) > 1e-12 {
			return false
		}
		j := JaccardSimilarity{}
		if j12 := score(j, rows[0], rows[1]); j12 != score(j, rows[1], rows[0]) || j12 < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestCohesionHighlight verifies the "selective highlight" claim: for a
// fixed union size, semantic similarity grows super-linearly in the overlap
// while Jaccard grows sub-quadratically, so the ratio semantic/jaccard is
// increasing in overlap.
func TestCohesionHighlight(t *testing.T) {
	valid := 20
	var prevRatio float64
	for inter := 1; inter <= valid; inter++ {
		rows := make([][]int, 2)
		for j := 0; j < valid; j++ {
			rows[0] = append(rows[0], j)
			rows[1] = append(rows[1], j+valid-inter)
		}
		s := score(SemanticSimilarity{}, rows[0], rows[1])
		j := score(JaccardSimilarity{}, rows[0], rows[1])
		ratio := s / j
		if inter > 1 && ratio <= prevRatio {
			t.Fatalf("amplification not increasing at overlap %d: %v <= %v", inter, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestSlidingCohesion(t *testing.T) {
	sem := SlidingCohesion(64, 16, SemanticSimilarity{})
	jac := SlidingCohesion(64, 16, JaccardSimilarity{})
	if len(sem) != 49 || len(jac) != 49 {
		t.Fatalf("lengths %d, %d", len(sem), len(jac))
	}
	// Peak at offset 0 (full overlap): semantic = 16²/32 = 8, jaccard = 1.
	if sem[0] != 8 || jac[0] != 1 {
		t.Fatalf("peaks = %v, %v", sem[0], jac[0])
	}
	// Zero overlap at the far end.
	if sem[len(sem)-1] != 0 || jac[len(jac)-1] != 0 {
		t.Fatal("tail should be 0")
	}
	// Semantic amplification: mid-slide ratio vs Jaccard must exceed the
	// near-tail ratio (Fig. 4(a): middle dramatically amplified).
	mid := sem[8] / jac[8]
	tail := sem[14] / jac[14]
	if mid <= tail {
		t.Fatalf("mid amplification %v not above tail %v", mid, tail)
	}
	// The arithmetic overlap equals the count over the two explicit windows,
	// bit for bit, including the clamped and empty windows.
	for _, c := range []struct{ width, valid int }{{64, 16}, {10, 10}, {5, 9}, {7, 0}, {33, 1}} {
		for _, sim := range []Similarity{SemanticSimilarity{}, JaccardSimilarity{}} {
			got := SlidingCohesion(c.width, c.valid, sim)
			valid := min(c.valid, c.width)
			fixed := make([]int, valid)
			for j := range fixed {
				fixed[j] = j
			}
			for off, v := range got {
				window := make([]int, valid)
				for j := range window {
					window[j] = off + j
				}
				if want := score(sim, window, fixed); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("%s %d/%d offset %d: %v, windows give %v", sim.Name(), c.width, c.valid, off, v, want)
				}
			}
		}
	}
}

func TestSimilarityNames(t *testing.T) {
	if (SemanticSimilarity{}).Name() != "semantic" || (JaccardSimilarity{}).Name() != "jaccard" {
		t.Fatal("names wrong")
	}
}

// SemanticScoreSets computes Eq. 1 directly from neighbor sets: the oracle
// the vectorized form (Eq. 2, SemanticSimilarity.Score) is checked against.
func SemanticScoreSets(n1, n2 map[int]bool) float64 {
	var inter int
	for v := range n1 {
		if n2[v] {
			inter++
		}
	}
	den := len(n1) + len(n2)
	if den == 0 {
		return 0
	}
	return float64(inter*inter) / float64(den)
}
