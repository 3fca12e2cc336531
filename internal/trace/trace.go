// Package trace provides the small reporting toolkit the experiment
// harnesses share: typed result tables with aligned text rendering and CSV
// export, and numeric series for figure-style outputs.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is an ordered collection of rows under named columns.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Exact holds each cell as Rows does, but a float cell in its shortest
	// exact form: Rows is what a reader sees, Exact what a golden compares.
	Exact [][]string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v unless already strings.
func (t *Table) AddRow(values ...interface{}) {
	row, exact := make([]string, len(values)), make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			row[i], exact[i] = x, x
		case float64:
			row[i], exact[i] = formatFloat(x), exactFloat(x)
		case float32:
			row[i], exact[i] = formatFloat(float64(x)), exactFloat(float64(x))
		default:
			row[i] = fmt.Sprintf("%v", v)
			exact[i] = row[i]
		}
	}
	if len(row) != len(t.Columns) {
		panic(fmt.Sprintf("trace: row has %d values, table has %d columns", len(row), len(t.Columns)))
	}
	t.Rows = append(t.Rows, row)
	t.Exact = append(t.Exact, exact)
}

// exactFloat renders x in the shortest form that parses back to the same
// float64.
func exactFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func formatFloat(x float64) string {
	a := x
	if a < 0 {
		a = -a
	}
	switch {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", x)
	case a >= 10:
		return fmt.Sprintf("%.1f", x)
	case a >= 0.01:
		return fmt.Sprintf("%.3f", x)
	default:
		return fmt.Sprintf("%.2e", x)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// WriteCSV writes the table as CSV (comma-separated, quotes only when needed).
func (t *Table) WriteCSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeLine(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// Series is a named (x, y) sequence — the text analogue of one figure curve.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a titled bundle of series (one per curve).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates a figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, registers, and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Render writes the figure as a table with one x column and one column per
// series (rows aligned by index; series of different lengths are padded).
func (f *Figure) Render(w io.Writer) {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	t := NewTable(fmt.Sprintf("%s (y: %s)", f.Title, f.YLabel), cols...)
	maxLen := 0
	for _, s := range f.Series {
		if len(s.X) > maxLen {
			maxLen = len(s.X)
		}
	}
	for i := 0; i < maxLen; i++ {
		row := make([]interface{}, 0, len(cols))
		x := ""
		for _, s := range f.Series {
			if i < len(s.X) {
				x = formatFloat(s.X[i])
				break
			}
		}
		row = append(row, x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, s.Y[i])
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

// String renders the figure to a string.
func (f *Figure) String() string {
	var b strings.Builder
	f.Render(&b)
	return b.String()
}
