// Package experiments contains the drivers that regenerate every figure,
// table, and headline number in the paper's evaluation:
//
//   - Figure 2 (quorum size vs rounds to convergence, four variants plus
//     the Corollary 7 bound) — figure2.go
//   - the Section 6.4 message-complexity comparison — msgtable.go
//   - the Theorem 1 write-survival decay and the [R5] read-freshness
//     distribution — decay.go
//   - the Section 4 load and availability properties — loadavail.go
//   - the Corollary 7 bound curve and the c_n ∈ (1, 2) claim — bounds.go
//
// Each driver returns a structured result and builds its Report from it:
// typed Tables, which one text renderer and one CSV renderer print, plus
// note lines. Registry lists every experiment under its ID.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Pct is a probability that the text view prints as a percentage with one
// decimal and the CSV view as a float.
type Pct float64

// Prefixed is a cell that the text view prints after Prefix, such as ">="
// on a lower bound; the CSV view prints Value alone.
type Prefixed struct {
	Prefix string
	Value  any
}

// format prints one cell: an int or int64, a float64 at the column's
// decimals (+Inf and −Inf as "inf" and "-inf"), a Pct, a bool, a string,
// or a Prefixed one of these.
func format(cell any, decimals int, text bool) string {
	switch v := cell.(type) {
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		switch {
		case math.IsInf(v, 1):
			return "inf"
		case math.IsInf(v, -1):
			return "-inf"
		}
		return strconv.FormatFloat(v, 'f', decimals, 64)
	case Pct:
		if text {
			return fmt.Sprintf("%.1f%%", 100*v)
		}
		return format(float64(v), decimals, text)
	case bool:
		return strconv.FormatBool(v)
	case string:
		return v
	case Prefixed:
		if text {
			return v.Prefix + format(v.Value, decimals, text)
		}
		return format(v.Value, decimals, text)
	}
	panic(fmt.Sprintf("experiments: a %T is not a table cell", cell))
}

// Col is one table column: its header and float decimals in the text view
// and in the CSV view. An empty header leaves the column out of that view.
type Col struct {
	Text, CSV       string
	TextDec, CSVDec int
}

// same returns columns with one header in both views and no decimals.
func same(headers ...string) []Col {
	cols := make([]Col, len(headers))
	for i, h := range headers {
		cols[i] = Col{Text: h, CSV: h}
	}
	return cols
}

type row struct {
	cells []any
	// csvOnly leaves the row out of the text view, which samples long
	// series the CSV keeps whole.
	csvOnly bool
}

// Table is a table of typed cells (see format) with a text and a CSV view.
type Table struct {
	Cols []Col
	rows []row
}

// Add appends a row, one cell per column.
func (t *Table) Add(cells ...any) { t.rows = append(t.rows, row{cells: cells}) }

// AddCSVOnly appends a row that the text view leaves out.
func (t *Table) AddCSVOnly(cells ...any) { t.rows = append(t.rows, row{cells: cells, csvOnly: true}) }

// view returns one view's headers and formatted rows.
func (t Table) view(text bool) (headers []string, rows [][]string) {
	var cols []int
	for i, c := range t.Cols {
		h := c.CSV
		if text {
			h = c.Text
		}
		if h != "" {
			cols = append(cols, i)
			headers = append(headers, h)
		}
	}
	for _, r := range t.rows {
		if text && r.csvOnly {
			continue
		}
		cells := make([]string, len(cols))
		for j, i := range cols {
			dec := t.Cols[i].CSVDec
			if text {
				dec = t.Cols[i].TextDec
			}
			cells[j] = format(r.cells[i], dec, text)
		}
		rows = append(rows, cells)
	}
	return headers, rows
}

// WriteText writes the text view: an aligned table under a header line and
// a rule; the last column is not padded.
func (t Table) WriteText(w io.Writer) error {
	headers, rows := t.view(true)
	widths := make([]int, len(headers))
	rules := make([]string, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
		for _, r := range rows {
			widths[i] = max(widths[i], len(r[i]))
		}
		rules[i] = strings.Repeat("-", widths[i])
	}
	var sb strings.Builder
	for _, cells := range append([][]string{headers, rules}, rows...) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteCSV writes the CSV view: a header line, then every row. A cell
// holding a comma, a quote or a newline is quoted.
func (t Table) WriteCSV(w io.Writer) error {
	headers, rows := t.view(false)
	var sb strings.Builder
	for _, cells := range append([][]string{headers}, rows...) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Part is one piece of a report's text view: a Note, a Table or a Plot.
type Part interface {
	WriteText(w io.Writer) error
}

// Note is text printed as it stands.
type Note string

// WriteText writes the note.
func (n Note) WriteText(w io.Writer) error {
	_, err := io.WriteString(w, string(n))
	return err
}

// Report is what one experiment prints: its text parts in order, and the
// table its CSV file holds.
type Report struct {
	Text []Part
	CSV  Table
}

// WriteText writes every text part in order.
func (r Report) WriteText(w io.Writer) error {
	for _, p := range r.Text {
		if err := p.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// titled is the common report shape: a title line, a blank line, and one
// table that is both the text view and the CSV file.
func titled(title string, t Table) Report {
	return Report{Text: []Part{Note(title + "\n\n"), t}, CSV: t}
}

// lowerBound marks v with ">=" in the text view when it is a lower bound.
func lowerBound(v float64, lower bool) any {
	if lower {
		return Prefixed{">=", v}
	}
	return v
}
