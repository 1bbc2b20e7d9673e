package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Table is one study's output as data; every printed form comes from
// it. Text prints the title lines, the text columns of Rows and then
// Summary as a fixed-width table, and the footer lines. CSV prints the
// CSV columns of Rows. JSON encodes Results, the study's typed results.
type Table struct {
	Title, Footer []string
	// Cols are the column headers: a text header and a CSV name. An
	// empty one keeps the column out of that form.
	Cols []Cell
	// Rows hold one cell per column.
	Rows [][]Cell
	// Summary rows (geomeans, model predictions) are text only: one
	// string per text column.
	Summary [][]string
	Results any
}

// Cell is one value in its text and CSV forms.
type Cell struct{ Text, CSV string }

// cellf prints a number with a text format and, in CSV, as f does.
func cellf(format string, v float64) Cell { return Cell{fmt.Sprintf(format, v), f(v)} }

// cellInt prints an integer the same way in both forms.
func cellInt(v int64) Cell { return cellStr(d(v)) }

// cellStr prints a label the same way in both forms.
func cellStr(s string) Cell { return Cell{s, s} }

// f prints a CSV float in the shortest form that reads back as the
// same float64, every digit JSON carries.
func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func d(v int64) string   { return strconv.FormatInt(v, 10) }

// records returns the header and the rows in one form, text or CSV,
// keeping only the columns that form has.
func (t Table) records(asCSV bool) [][]string {
	form := func(c Cell) string {
		if asCSV {
			return c.CSV
		}
		return c.Text
	}
	var idx []int
	var hdr []string
	for i, c := range t.Cols {
		if form(c) != "" {
			idx, hdr = append(idx, i), append(hdr, form(c))
		}
	}
	recs := [][]string{hdr}
	for _, r := range t.Rows {
		rec := make([]string, len(idx))
		for j, i := range idx {
			rec[j] = form(r[i])
		}
		recs = append(recs, rec)
	}
	return recs
}

// Text renders the table as fixed-width text, each column as wide as
// its widest cell and columns two spaces apart.
func (t Table) Text() string {
	recs := append(t.records(false), t.Summary...)
	w := make([]int, len(recs[0]))
	for _, r := range recs {
		for i, cell := range r {
			w[i] = max(w[i], len(cell))
		}
	}
	var sb strings.Builder
	for _, l := range t.Title {
		sb.WriteString(l + "\n")
	}
	for _, r := range recs {
		for i, cell := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", w[i], cell)
		}
		sb.WriteByte('\n')
	}
	for _, l := range t.Footer {
		sb.WriteString(l + "\n")
	}
	return sb.String()
}

// CSV renders the table's CSV columns, a header record first. Cells
// holding a comma or a quote are quoted.
func (t Table) CSV() string {
	var sb strings.Builder
	csv.NewWriter(&sb).WriteAll(t.records(true)) // a strings.Builder never fails
	return sb.String()
}

// JSON encodes the study's typed results, indented, with a final
// newline.
func (t Table) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(t.Results, "", "  ")
	return append(data, '\n'), err
}
