package experiment

import (
	"bytes"
	"errors"
	"testing"

	"netsample/internal/core"
)

// failWriter errors after allowing n bytes, exercising every renderer's
// error-propagation path.
type failWriter struct {
	remaining int
}

var errWriterFull = errors.New("writer full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, errWriterFull
	}
	if len(p) > w.remaining {
		n := w.remaining
		w.remaining = 0
		return n, errWriterFull
	}
	w.remaining -= len(p)
	return len(p), nil
}

func TestWriteTextPropagatesWriterErrors(t *testing.T) {
	tr := testTrace(t)
	results, err := All(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		// Failing immediately and failing mid-render must both surface.
		for _, budget := range []int{0, 40} {
			w := &failWriter{remaining: budget}
			if err := r.WriteText(w); !errors.Is(err, errWriterFull) {
				t.Errorf("%s with %d-byte writer: err = %v, want errWriterFull",
					r.ID(), budget, err)
			}
		}
	}
}

func TestWriteCSVPropagatesWriterErrors(t *testing.T) {
	tr := testTrace(t)
	r, err := Table3(core.NewProfile(tr))
	if err != nil {
		t.Fatal(err)
	}
	w := &failWriter{remaining: 4}
	if err := r.WriteCSV(w); err == nil {
		t.Error("csv writer error swallowed")
	}
	if err := r.WriteJSON(&failWriter{}); err == nil {
		t.Error("json writer error swallowed")
	}
}

func TestWriteAllPropagatesWriterErrors(t *testing.T) {
	tr := testTrace(t)
	r, err := Table2(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(&failWriter{remaining: 10}, []Result{r}); err == nil {
		t.Error("WriteAll swallowed writer error")
	}
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		format string
		budget int
	}{
		{"csv", 10},
		{"text", 10},
		{"text", text.Len()}, // the result fits; the separator after it fails
	} {
		if err := WriteAllFormat(&failWriter{remaining: c.budget}, []Result{r}, c.format); err == nil {
			t.Errorf("WriteAllFormat(%q) with a %d-byte writer swallowed the error", c.format, c.budget)
		}
	}
}

// Ensure header failures (the very first write) are also caught — a
// regression guard for renderers that ignore header's error.
func TestHeaderErrorCaught(t *testing.T) {
	tr := testTrace(t)
	r, err := Figure3(tr)
	if err != nil {
		t.Fatal(err)
	}
	w := &failWriter{remaining: 1}
	if err := r.WriteText(w); err == nil {
		t.Error("header write error ignored")
	}
}
