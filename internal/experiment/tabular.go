package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"
)

// table is one artifact's output, described once: its id and title,
// its columns, its rows of typed cells, and the lines only the text
// shows — totals, prose and legends. WriteText, WriteCSV and WriteJSON
// render it. Every result embeds the table its runner filled.
type table struct {
	id, title string
	cols      []column
	cells     []cell // row-major, len(cols) to a row
	// above and below are text-only lines before the column heading and
	// after the last row.
	above, below []string
}

// column is one field of a table's rows. name heads it in CSV and JSON,
// head in text, where text lays out each cell as a printf-style verb
// %[-]W[.P]c followed by literal text ("%9.1f%%") and head is padded to
// the cell's width. A column with no text verb is left out of the text.
type column struct{ name, head, text string }

// granularity is the sampling-granularity column most figures lead with.
var granularity = column{"granularity", "1/frac", "%8d"}

// cell is one typed value of a table row. A float prints at its
// column's text precision unless prec is positive.
type cell struct {
	kind byte // 's', 'd' or 'f'
	s    string
	n    int64
	f    float64
	prec int
}

func str(s string) cell                           { return cell{kind: 's', s: s} }
func integer[T ~int | ~int64 | ~uint64](n T) cell { return cell{kind: 'd', n: int64(n)} }
func float(f float64) cell                        { return cell{kind: 'f', f: f} }

func newTable(id, title string, cols ...column) table {
	return table{id: id, title: title, cols: cols}
}

// addRow appends one row, a cell for each column.
func (t *table) addRow(row ...cell) {
	if len(row) != len(t.cols) {
		panic(fmt.Sprintf("experiment: %s row of %d cells, want %d", t.id, len(row), len(t.cols)))
	}
	t.cells = append(t.cells, row...)
}

// ID is the paper artifact identifier, e.g. "table2" or "figure8".
func (t *table) ID() string { return t.id }

// Title is the artifact's one-line description.
func (t *table) Title() string { return t.title }

// WriteText renders the banner, the lines above, the heading and rows
// of the columns that have a text verb, and the lines below.
func (t *table) WriteText(w io.Writer) error {
	b := fmt.Appendf(nil, "== %s: %s ==\n", t.id, t.title)
	b = appendLines(b, t.above)
	if slices.ContainsFunc(t.cols, func(c column) bool { return c.text != "" }) {
		b = t.appendLine(b, nil)
		for i := 0; i < len(t.cells); i += len(t.cols) {
			b = t.appendLine(b, t.cells[i:i+len(t.cols)])
		}
	}
	_, err := w.Write(appendLines(b, t.below))
	return err
}

func appendLines(b []byte, lines []string) []byte {
	for _, l := range lines {
		b = append(append(b, l...), '\n')
	}
	return b
}

// appendLine appends one text line: the heading when row is nil.
func (t *table) appendLine(b []byte, row []cell) []byte {
	first := true
	for j, c := range t.cols {
		if c.text == "" {
			continue
		}
		if !first {
			b = append(b, ' ')
		}
		first = false
		v := parseVerb(c.text)
		start := len(b)
		if row == nil {
			b = pad(append(b, c.head...), start, v.width+len(v.suffix), v.left)
			continue
		}
		switch x := row[j]; x.kind {
		case 's':
			b = append(b, x.s...)
		case 'd':
			b = strconv.AppendInt(b, x.n, 10)
		case 'f':
			prec := v.prec
			if x.prec > 0 {
				prec = x.prec
			}
			b = strconv.AppendFloat(b, x.f, 'f', prec, 64)
		}
		b = append(pad(b, start, v.width, v.left), v.suffix...)
	}
	return append(b, '\n')
}

// verb is a column's parsed text layout.
type verb struct {
	left        bool
	width, prec int
	suffix      string // literal text after the verb, "%%" read as "%"
}

// parseVerb reads %[-]W[.P]c and the literal text after it.
func parseVerb(s string) verb {
	v := verb{prec: 6}
	i := 1
	if i < len(s) && s[i] == '-' {
		v.left = true
		i++
	}
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		v.width = 10*v.width + int(s[i]-'0')
	}
	if i < len(s) && s[i] == '.' {
		for v.prec, i = 0, i+1; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			v.prec = 10*v.prec + int(s[i]-'0')
		}
	}
	v.suffix = s[min(i+1, len(s)):]
	if v.suffix == "%%" {
		v.suffix = "%"
	}
	return v
}

// pad pads b[start:] with spaces to width runes, on the right when left
// is set and on the left otherwise, as fmt does.
func pad(b []byte, start, width int, left bool) []byte {
	n := width - utf8.RuneCount(b[start:])
	if n <= 0 {
		return b
	}
	for range n {
		b = append(b, ' ')
	}
	if !left {
		copy(b[start+n:], b[start:len(b)-n])
		for i := start; i < start+n; i++ {
			b[i] = ' '
		}
	}
	return b
}

// WriteCSV renders the table as CSV with a leading artifact column.
func (t *table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rec := []string{"artifact"}
	for _, c := range t.cols {
		rec = append(rec, c.name)
	}
	if err := cw.Write(rec); err != nil {
		return err
	}
	rec[0] = t.id
	for i := 0; i < len(t.cells); i += len(t.cols) {
		for j, x := range t.cells[i : i+len(t.cols)] {
			rec[1+j] = x.export()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonDoc is the JSON export shape.
type jsonDoc struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// WriteJSON renders the table as one indented JSON document.
func (t *table) WriteJSON(w io.Writer) error {
	doc := jsonDoc{ID: t.id, Title: t.title}
	for _, c := range t.cols {
		doc.Columns = append(doc.Columns, c.name)
	}
	for i := 0; i < len(t.cells); i += len(t.cols) {
		var rec []string
		for _, x := range t.cells[i : i+len(t.cols)] {
			rec = append(rec, x.export())
		}
		doc.Rows = append(doc.Rows, rec)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// export is the cell as CSV and JSON carry it.
func (c cell) export() string {
	switch c.kind {
	case 'd':
		return strconv.FormatInt(c.n, 10)
	case 'f':
		return strconv.FormatFloat(c.f, 'g', 8, 64)
	}
	return c.s
}

// WriteAllFormat renders every result in the requested format:
// "text" (default; WriteAll), "csv" or "json".
func WriteAllFormat(w io.Writer, results []Result, format string) error {
	var write func(Result, io.Writer) error
	switch format {
	case "", "text":
		return WriteAll(w, results)
	case "csv":
		write = Result.WriteCSV
	case "json":
		write = Result.WriteJSON
	default:
		return fmt.Errorf("experiment: unknown format %q", format)
	}
	for _, r := range results {
		if err := write(r, w); err != nil {
			return err
		}
	}
	return nil
}
