package experiment

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"netsample/internal/core"
)

// tab returns the table r renders: tests read an artifact's numbers
// from the cells it publishes.
func tab(t testing.TB, r Result) *table {
	t.Helper()
	switch x := r.(type) {
	case *table:
		return x
	case *MethodsFigureResult:
		return x.table
	}
	t.Fatalf("%T renders no table", r)
	return nil
}

// cells returns the cells of r's column name, in row order.
func cells(t testing.TB, r Result, name string) []cell {
	t.Helper()
	tb := tab(t, r)
	j := slices.IndexFunc(tb.cols, func(c column) bool { return c.name == name })
	if j < 0 {
		t.Fatalf("%s has no column %q", tb.id, name)
	}
	var out []cell
	for i := j; i < len(tb.cells); i += len(tb.cols) {
		out = append(out, tb.cells[i])
	}
	return out
}

// floats, ints and strs return a column's values, which must all be of
// that kind.
func floats(t testing.TB, r Result, name string) []float64 {
	t.Helper()
	return values(t, r, name, 'f', func(c cell) float64 { return c.f })
}

func ints(t testing.TB, r Result, name string) []int64 {
	t.Helper()
	return values(t, r, name, 'd', func(c cell) int64 { return c.n })
}

func strs(t testing.TB, r Result, name string) []string {
	t.Helper()
	return values(t, r, name, 's', func(c cell) string { return c.s })
}

func values[T any](t testing.TB, r Result, name string, kind byte, v func(cell) T) []T {
	t.Helper()
	var out []T
	for i, c := range cells(t, r, name) {
		if c.kind != kind {
			t.Fatalf("%s column %q row %d is a %q cell, want %q", r.ID(), name, i, c.kind, kind)
		}
		out = append(out, v(c))
	}
	return out
}

// numRows is the number of rows r publishes.
func numRows(t testing.TB, r Result) int {
	t.Helper()
	tb := tab(t, r)
	return len(tb.cells) / len(tb.cols)
}

func TestWriteCSVParses(t *testing.T) {
	tr := testTrace(t)
	r, err := Figure7(tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(figure6Grans)+1 {
		t.Fatalf("csv rows = %d", len(records))
	}
	if records[0][0] != "artifact" || records[1][0] != "figure7" {
		t.Fatalf("csv header/id wrong: %v", records[0])
	}
}

func TestWriteJSONParses(t *testing.T) {
	tr := testTrace(t)
	r, err := ChiSquareAcceptance(tr, core.TargetSize)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID      string     `json:"id"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != "sec5.2" || len(doc.Rows) != 1 || len(doc.Columns) != 5 {
		t.Fatalf("json doc = %+v", doc)
	}
}

func TestWriteAllFormat(t *testing.T) {
	tr := testTrace(t)
	r, err := Table2(tr)
	if err != nil {
		t.Fatal(err)
	}
	results := []Result{r}
	for _, format := range []string{"text", "csv", "json", ""} {
		var buf bytes.Buffer
		if err := WriteAllFormat(&buf, results, format); err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("format %q produced nothing", format)
		}
	}
	if err := WriteAllFormat(&bytes.Buffer{}, results, "xml"); err == nil ||
		!strings.Contains(err.Error(), "unknown format") {
		t.Fatalf("unknown format accepted: %v", err)
	}
}
