package experiment

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"netsample/internal/core"
)

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
	if len(records) != len(r.Means)+1 {
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
