package trace

import (
	"slices"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 1234.0)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1234") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Alignment: both data rows start their second column at the same offset.
	if strings.Index(lines[3], "1.5") != strings.Index(lines[4], "1234") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

// TestTableKeepsExactCells: a float cell is kept beside its display string in
// the shortest form that parses back to the same bits; other cells read the
// same in both.
func TestTableKeepsExactCells(t *testing.T) {
	tb := NewTable("x", "name", "f64", "f32", "int")
	a, third := 0.1, float32(1)
	tb.AddRow("a", a+0.2, third/3, 7)
	if got, want := tb.Rows[0], []string{"a", "0.300", "0.333", "7"}; !slices.Equal(got, want) {
		t.Fatalf("display %q, want %q", got, want)
	}
	if got, want := tb.Exact[0], []string{"a", "0.30000000000000004", "0.3333333432674408", "7"}; !slices.Equal(got, want) {
		t.Fatalf("exact %q, want %q", got, want)
	}
}

func TestAddRowArityPanics(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddRow("only-one")
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234.6:  "1235",
		42.123:  "42.1",
		0.5:     "0.500",
		0.00001: "1.00e-05",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", 2.0)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "\"x,y\"") {
		t.Fatalf("comma not quoted: %q", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("header wrong: %q", out)
	}
}

func TestFigure(t *testing.T) {
	f := NewFigure("fig", "k", "inertia")
	s1 := f.AddSeries("semantic")
	s1.Add(1, 10)
	s1.Add(2, 5)
	s2 := f.AddSeries("jaccard")
	s2.Add(1, 12)
	out := f.String()
	if !strings.Contains(out, "semantic") || !strings.Contains(out, "jaccard") {
		t.Fatalf("missing series:\n%s", out)
	}
	if !strings.Contains(out, "fig (y: inertia)") {
		t.Fatalf("missing title:\n%s", out)
	}
	// Shorter series padded, not crashed.
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 5 {
		t.Fatalf("row count wrong:\n%s", out)
	}
}
