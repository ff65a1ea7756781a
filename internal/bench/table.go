// Package bench is the experiment harness: one runner per experiment of
// README.md’s experiment map (E1–E13), each producing a table with the paper’s
// theory column next to the measured column plus structured Records
// that the CSV/JSON emitters serialize for downstream tools (plots,
// regression gates). Every runner builds its workload graph from a
// topo.Spec, so any experiment can be re-run on any registered
// topology family. cmd/muexp prints or serializes the results;
// bench_test.go wraps the runners in testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's output: the human-readable rendering
// (Header/Rows/Notes) plus the machine-readable Records that the CSV
// and JSON emitters serialize.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
	// Records holds one structured Record per simulated execution, in
	// emission order. The grid runner stamps Cell, Seed and Row.
	Records []Record
}

// AddRecord appends one structured run record.
func (t *Table) AddRecord(r Record) { t.Records = append(t.Records, r) }

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(w, "paper: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		// Rows may carry more cells than the header; grow widths so the
		// extra columns render instead of panicking in line().
		for len(widths) < len(r) {
			widths = append(widths, 0)
		}
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
