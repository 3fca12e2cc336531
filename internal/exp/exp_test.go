package exp

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func quickOpts() Options {
	return Options{Seed: 1, Quick: true, Partitions: 2}
}

// quick runs experiment id through Run on the Quick options.
func quick(t *testing.T, id string) *Report {
	t.Helper()
	r, err := Run(id, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// cell parses a float from a table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// TestRegistryAndIDs: the suite's ids are unique and in display order — the
// paper's tables and figures in paper order, then the ablations and the
// scale study — and Run refuses an id outside it.
func TestRegistryAndIDs(t *testing.T) {
	want := []string{"fig2b", "fig2d", "fig4a", "fig4b", "fig6", "fig9", "fig10", "table1",
		"fig11", "fig12a", "fig12b", "table2",
		"abl-codec", "abl-curves", "abl-depth", "abl-fabric", "abl-groups", "abl-replan",
		"abl-sched", "abl-seeds", "abl-sim", "abl-weights", "scale"}
	if ids := IDs(); !slices.Equal(ids, want) {
		t.Fatalf("IDs() = %v\nwant %v", ids, want)
	}
	seen := map[string]bool{}
	for _, e := range suite {
		if seen[e.id] || e.build == nil {
			t.Fatalf("suite entry %q duplicated or without a builder", e.id)
		}
		seen[e.id] = true
	}
	if r, err := Run("nope", quickOpts()); err == nil || r != nil {
		t.Fatalf("Run(nope) = %v, %v; want an error", r, err)
	}
}

// TestRunRefusesEmptyParts: more partitions than the Quick datasets have
// nodes leaves parts empty, which a training experiment (fig9) and a
// plan-only one (fig2d) each return as an error instead of panicking.
func TestRunRefusesEmptyParts(t *testing.T) {
	for _, id := range []string{"fig9", "fig2d"} {
		r, err := Run(id, Options{Seed: 1, Quick: true, Partitions: 1000})
		if err == nil || r != nil || !strings.Contains(err.Error(), "is empty") {
			t.Errorf("Run(%s, 1000 parts) = %v, %v; want an empty-partition error", id, r, err)
		}
	}
}

// TestRunRepanicsForeignPanics: Run turns only a failed step into an error;
// any other panic in a builder is a bug and propagates.
func TestRunRepanicsForeignPanics(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want the builder's own panic", p)
		}
	}()
	suite = append(suite, struct {
		id    string
		build func(*job)
	}{"boom", func(*job) { panic("boom") }})
	defer func() { suite = suite[:len(suite)-1] }()
	Run("boom", quickOpts())
	t.Fatal("Run returned")
}

func TestFig2bShape(t *testing.T) {
	r := quick(t, "fig2b")
	if len(r.Tables) == 0 || len(r.Figures) == 0 {
		t.Fatal("empty report")
	}
	tb := r.Tables[0]
	var semVol, semAcc, vanAcc float64
	minBaselineVol := 2.0
	for _, row := range tb.Rows {
		vol := cell(t, row[2])
		acc := cell(t, row[3])
		switch row[0] {
		case "semantic":
			semVol, semAcc = vol, acc
		case "vanilla":
			vanAcc = acc
		default:
			if vol < minBaselineVol {
				minBaselineVol = vol
			}
		}
	}
	if semVol >= minBaselineVol {
		t.Fatalf("semantic volume %v not below best baseline %v", semVol, minBaselineVol)
	}
	if semAcc < vanAcc-0.1 {
		t.Fatalf("semantic accuracy %v collapsed vs vanilla %v", semAcc, vanAcc)
	}
}

func TestFig2dShape(t *testing.T) {
	r := quick(t, "fig2d")
	tb := r.Tables[0]
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tb.Rows {
		m2mShare := cell(t, row[9])
		o2oShare := cell(t, row[6])
		if m2mShare < 50 {
			t.Fatalf("%s: M2M edge share %v%% not dominant", row[0], m2mShare)
		}
		if o2oShare > m2mShare {
			t.Fatalf("%s: O2O share above M2M", row[0])
		}
	}
}

func TestFig4aShape(t *testing.T) {
	r := quick(t, "fig4a")
	fig := r.Figures[0]
	sem := fig.Series[0]
	jac := fig.Series[1]
	// Peak at offset 0; decays to 0 at the end.
	if sem.Y[0] <= jac.Y[0] {
		t.Fatalf("semantic peak %v not above jaccard %v", sem.Y[0], jac.Y[0])
	}
	if sem.Y[len(sem.Y)-1] != 0 {
		t.Fatal("tail should be zero overlap")
	}
}

func TestFig4bShape(t *testing.T) {
	r := quick(t, "fig4b")
	if len(r.Figures[0].Series) == 0 {
		t.Fatal("no inertia curves")
	}
	for _, s := range r.Figures[0].Series {
		// Inertia curves must be normalized to start at 1 and broadly decay.
		if s.Y[0] != 1 {
			t.Fatalf("%s: curve not normalized: %v", s.Name, s.Y[0])
		}
		if s.Y[len(s.Y)-1] > s.Y[0] {
			t.Fatalf("%s: inertia increased with k", s.Name)
		}
	}
	// EEP picks recorded.
	if len(r.Tables[0].Rows) == 0 {
		t.Fatal("no EEP rows")
	}
}

func TestFig6Shape(t *testing.T) {
	r := quick(t, "fig6")
	if len(r.Tables[0].Rows) == 0 {
		t.Fatal("no silhouette rows")
	}
	better := 0
	for _, row := range r.Tables[0].Rows {
		jac, sem := cell(t, row[3]), cell(t, row[4])
		if sem >= jac {
			better++
		}
	}
	// Semantic should win on at least half the datasets (paper: all).
	if better*2 < len(r.Tables[0].Rows) {
		t.Fatalf("semantic silhouette worse on most datasets")
	}
}

func TestFig9Shape(t *testing.T) {
	r := quick(t, "fig9")
	tb := r.Tables[0]
	if len(tb.Rows) < 2 {
		t.Fatal("need dense + sparse rows")
	}
	for _, row := range tb.Rows {
		sem := cell(t, row[4])
		if sem >= 1 {
			t.Fatalf("%s: semantic volume not below vanilla", row[0])
		}
	}
	// Dense dataset (row 0, reddit-like) compresses harder than sparse (last).
	dense := cell(t, tb.Rows[0][4])
	sparse := cell(t, tb.Rows[len(tb.Rows)-1][4])
	if dense >= sparse {
		t.Fatalf("dense ratio %v not below sparse %v", dense, sparse)
	}
}

func TestFig10Shape(t *testing.T) {
	r := quick(t, "fig10")
	tb := r.Tables[0]
	dense := cell(t, tb.Rows[0][2])
	sparse := cell(t, tb.Rows[len(tb.Rows)-1][2])
	if dense <= sparse {
		t.Fatalf("dense mean group size %v not above sparse %v", dense, sparse)
	}
}

func TestTable1Shape(t *testing.T) {
	r := quick(t, "table1")
	tb := r.Tables[0]
	// Group rows by dataset+parts and check semantic epoch time is minimal
	// in the majority of cells (paper: all cells).
	type key struct{ ds, parts string }
	times := map[key]map[string]float64{}
	accs := map[key]map[string]float64{}
	for _, row := range tb.Rows {
		k := key{row[0], row[2]}
		if times[k] == nil {
			times[k] = map[string]float64{}
			accs[k] = map[string]float64{}
		}
		times[k][row[1]] = cell(t, row[4])
		accs[k][row[1]] = cell(t, row[5])
	}
	wins := 0
	for k, mt := range times {
		semT := mt["semantic"]
		best := true
		for m, v := range mt {
			if m != "semantic" && v < semT {
				best = false
			}
		}
		if best {
			wins++
		}
		// Accuracy sanity: semantic within 12 points of vanilla everywhere.
		if accs[k]["semantic"] < accs[k]["vanilla"]-0.12 {
			t.Fatalf("%v: semantic accuracy %v vs vanilla %v", k,
				accs[k]["semantic"], accs[k]["vanilla"])
		}
	}
	if wins*2 < len(times) {
		t.Fatalf("semantic fastest in only %d/%d cells", wins, len(times))
	}
}

func TestFig11Shape(t *testing.T) {
	r := quick(t, "fig11")
	tb := r.Tables[0]
	// For each dataset, without-O2O must never increase volume, must strictly
	// reduce it somewhere (graphs with O2O residuals), and must keep accuracy
	// within a few points. On very dense graphs O2O can be entirely absent,
	// making the drop a no-op — exactly the paper's observation that O2O is a
	// rare connection type.
	var fullAcc float64
	strictly := false
	for _, row := range tb.Rows {
		switch row[1] {
		case "full":
			fullAcc = cell(t, row[4])
		case "without-O2O":
			norm := cell(t, row[3])
			if norm > 1 {
				t.Fatalf("%s: without-O2O norm volume %v > 1", row[0], norm)
			}
			if norm < 1 {
				strictly = true
			}
			if acc := cell(t, row[4]); acc < fullAcc-0.1 {
				t.Fatalf("%s: without-O2O accuracy dropped too far: %v vs %v", row[0], acc, fullAcc)
			}
		}
	}
	if !strictly {
		t.Fatal("without-O2O never reduced volume on any dataset")
	}
}

func TestFig12aShape(t *testing.T) {
	r := quick(t, "fig12a")
	s := r.Figures[0].Series[0]
	if len(s.Y) < 3 {
		t.Fatal("too few sweep points")
	}
	// Ratio at the highest degree must beat the lowest degree.
	if s.Y[len(s.Y)-1] >= s.Y[0] {
		t.Fatalf("compression did not improve with density: %v", s.Y)
	}
}

func TestFig12bShape(t *testing.T) {
	r := quick(t, "fig12b")
	tb := r.Tables[0]
	vols := map[string]float64{}
	accs := map[string]float64{}
	for _, row := range tb.Rows {
		vols[row[0]] = cell(t, row[2])
		accs[row[0]] = cell(t, row[3])
	}
	if vols["semantic+quant"] >= vols["semantic"] {
		t.Fatal("quant on top of semantic did not reduce volume")
	}
	if accs["semantic+quant"] < accs["vanilla"]-0.15 {
		t.Fatalf("semantic+quant accuracy collapsed: %v", accs["semantic+quant"])
	}
}

func TestTable2Shape(t *testing.T) {
	r := quick(t, "table2")
	tb := r.Tables[0]
	// Per dataset: random vanilla CV ≥ node-cut vanilla CV.
	byDS := map[string]map[string][]float64{}
	for _, row := range tb.Rows {
		if byDS[row[0]] == nil {
			byDS[row[0]] = map[string][]float64{}
		}
		byDS[row[0]][row[1]] = []float64{cell(t, row[2]), cell(t, row[3]), cell(t, row[4])}
	}
	for ds, rows := range byDS {
		if rows["random"][0] < rows["node-cut"][0] {
			t.Fatalf("%s: random vanilla CV %v below node-cut %v", ds, rows["random"][0], rows["node-cut"][0])
		}
	}
}

func TestReportString(t *testing.T) {
	r := quick(t, "fig4a")
	out := r.String()
	if !strings.Contains(out, "experiment fig4a") || !strings.Contains(out, "note:") {
		t.Fatalf("report rendering incomplete:\n%s", out)
	}
}
