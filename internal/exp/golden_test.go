package exp

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/quick.golden from this run")

// measured names, per experiment, the columns that time or sample the host
// running the suite rather than compute a result: the scale study's wall
// clocks, round rates and memory high-waters. The golden drops them by name.
var measured = map[string][]string{
	"scale": {"gen s", "plan s", "replan s", "rounds/s", "van r/s", "q8 r/s",
		"peak MB", "heap MB", "gen pk", "plan pk", "replan pk"},
}

// exactReport renders r for the golden: every table cell in its exact form
// (a float in the shortest string that parses back to its bits) with the
// measured columns left out, every figure point likewise, the notes, and the
// digest of every training run's per-epoch losses.
func exactReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "######## %s ########\n", r.ID)
	for _, t := range r.Tables {
		var keep []int
		for i, c := range t.Columns {
			if !slices.Contains(measured[r.ID], c) {
				keep = append(keep, i)
			}
		}
		line := func(cells []string) {
			for n, i := range keep {
				if n > 0 {
					b.WriteString(" | ")
				}
				b.WriteString(cells[i])
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
		line(t.Columns)
		for _, row := range t.Exact {
			line(row)
		}
	}
	exact := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, f := range r.Figures {
		fmt.Fprintf(&b, "== %s (x: %s, y: %s) ==\n", f.Title, f.XLabel, f.YLabel)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%s:", s.Name)
			for i := range s.X {
				fmt.Fprintf(&b, " %s,%s", exact(s.X[i]), exact(s.Y[i]))
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	fmt.Fprintf(&b, "losses sha256 %x\n", r.losses.Sum(nil))
	return b.String()
}

// TestQuickSuiteGolden runs the whole suite as `scgnn-bench -exp all -quick`
// does and compares every number it computes, bit for bit, with
// testdata/quick.golden: a change that moves any cell, figure point or loss
// shows in the golden's diff when it is re-recorded with -update. `make test`
// runs it on one processor and on two, so every table is also held
// deterministic across GOMAXPROCS.
func TestQuickSuiteGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range IDs() {
		r, err := Run(id, Options{Seed: 1, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(exactReport(r))
	}
	const path = "testdata/quick.golden"
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < max(len(gl), len(wl)); i++ {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if strings.HasPrefix(w, "######## ") {
			section = w
		}
		if g != w {
			t.Fatalf("quick suite differs from %s at line %d (%s):\n got  %s\n want %s", path, i+1, section, g, w)
		}
	}
}
