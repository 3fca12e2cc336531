package exp

import "testing"

func TestAblSimilarityShape(t *testing.T) {
	r := quick(t, "abl-sim")
	tb := r.Tables[0]
	if len(tb.Rows) == 0 || len(tb.Rows)%2 != 0 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Both variants must train to sane accuracy on every dataset.
	for _, row := range tb.Rows {
		if acc := cell(t, row[3]); acc < 0.4 {
			t.Fatalf("%s/%s accuracy collapsed: %v", row[0], row[1], acc)
		}
	}
}

func TestAblGroupCountShape(t *testing.T) {
	r := quick(t, "abl-groups")
	s := r.Figures[0].Series[0]
	if len(s.Y) < 3 {
		t.Fatal("too few sweep points")
	}
	// Volume must grow with group count (more compression units = more
	// messages) — the Sec. 5.4 trade-off.
	if s.Y[len(s.Y)-1] <= s.Y[0] {
		t.Fatalf("volume did not grow with k: %v", s.Y)
	}
}

func TestAblWeightsShape(t *testing.T) {
	r := quick(t, "abl-weights")
	tb := r.Tables[0]
	// Per dataset: l-salsa row then uniform row; uniform must not be wildly
	// better (the weighting should help or tie).
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		salsa := cell(t, tb.Rows[i][2])
		uniform := cell(t, tb.Rows[i+1][2])
		if uniform > salsa+0.1 {
			t.Fatalf("%s: uniform weights (%v) far above L-SALSA (%v)", tb.Rows[i][0], uniform, salsa)
		}
	}
}

func TestAblSeedsShape(t *testing.T) {
	r := quick(t, "abl-seeds")
	tb := r.Tables[0]
	for _, row := range tb.Rows {
		mean := cell(t, row[2])
		std := cell(t, row[3])
		if mean < 0.4 || mean > 1 {
			t.Fatalf("%s/%s mean accuracy %v implausible", row[0], row[1], mean)
		}
		if std < 0 || std > 0.2 {
			t.Fatalf("%s/%s accuracy std %v implausible", row[0], row[1], std)
		}
	}
}

func TestAblDepthShape(t *testing.T) {
	r := quick(t, "abl-depth")
	sv := r.Figures[0].Series[0]
	ss := r.Figures[0].Series[1]
	// Vanilla volume must grow with depth; semantic must stay far below it.
	if sv.Y[len(sv.Y)-1] <= sv.Y[0] {
		t.Fatalf("vanilla volume did not grow with depth: %v", sv.Y)
	}
	for i := range ss.Y {
		if ss.Y[i] >= sv.Y[i] {
			t.Fatalf("semantic volume %v not below vanilla %v at depth index %d", ss.Y[i], sv.Y[i], i)
		}
	}
}

func TestAblFabricShape(t *testing.T) {
	r := quick(t, "abl-fabric")
	tb := r.Tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Speedup must grow monotonically as the fabric slows
	// (nvlink → pcie → ethernet).
	var prev float64
	for i, row := range tb.Rows {
		speedup := cell(t, row[3])
		if speedup < 1 {
			t.Fatalf("%s: semantic slower than vanilla (%vx)", row[0], speedup)
		}
		if i > 0 && speedup < prev {
			t.Fatalf("speedup not monotone in fabric slowness: %v after %v", speedup, prev)
		}
		prev = speedup
	}
}

func TestAblCodecShape(t *testing.T) {
	r := quick(t, "abl-codec")
	tb := r.Tables[0]
	accs := map[string]float64{}
	vols := map[string]float64{}
	for _, row := range tb.Rows {
		vols[row[0]] = cell(t, row[1])
		accs[row[0]] = cell(t, row[2])
	}
	if vols["quant"] >= vols["vanilla"] {
		t.Fatal("4-bit quant did not reduce volume")
	}
	// Error feedback must not hurt accuracy materially relative to plain
	// low-bit quantization.
	if accs["quant+ef"] < accs["quant"]-0.05 {
		t.Fatalf("EF hurt accuracy: %v vs %v", accs["quant+ef"], accs["quant"])
	}
	if vols["semantic+quant"] >= vols["quant"] {
		t.Fatal("semantic+quant not below plain quant volume")
	}
}

func TestAblRuntimeShape(t *testing.T) {
	r := quick(t, "abl-runtime")
	for _, row := range r.Tables[0].Rows {
		if row[4] != "true" {
			t.Fatalf("%s/%s: engine and wire bytes disagree (%s vs %s)",
				row[0], row[1], row[2], row[3])
		}
	}
	if len(r.Notes) != 0 {
		t.Fatalf("mismatches reported: %v", r.Notes)
	}
}

func TestAblCurvesShape(t *testing.T) {
	r := quick(t, "abl-curves")
	fig := r.Figures[0]
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Y) < 5 {
			t.Fatalf("%s: curve too short (%d points)", s.Name, len(s.Y))
		}
		// Curves must broadly improve: final ≥ first.
		if s.Y[len(s.Y)-1] < s.Y[0]-0.05 {
			t.Fatalf("%s: validation accuracy regressed: %v → %v", s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
}
