package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Format renders the series set as a column-per-curve text block, the same
// rows a gnuplot data file would contain. Replicated series render
// "mean±ci95" cells; the column width adapts so error-bar cells stay
// aligned.
func (s SeriesSet) Format() string {
	cells := make([][]string, len(s.X))
	width := 12
	for i := range s.X {
		row := make([]string, len(s.Series))
		for j, ls := range s.Series {
			cell := "-"
			if i < len(ls.Y) {
				cell = fmt.Sprintf("%.3f", ls.Y[i])
				if i < len(ls.Err) {
					cell += fmt.Sprintf("±%.3f", ls.Err[i])
				}
			}
			row[j] = cell
			if len(cell) > width {
				width = len(cell)
			}
		}
		cells[i] = row
	}
	for _, ls := range s.Series {
		if len(ls.Label) > width {
			width = len(ls.Label)
		}
	}
	var b strings.Builder
	b.WriteString(s.Title)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-8s", s.XLabel)
	for _, ls := range s.Series {
		fmt.Fprintf(&b, "  %*s", width, ls.Label)
	}
	b.WriteByte('\n')
	for i, x := range s.X {
		fmt.Fprintf(&b, "%-8.1f", x)
		for _, cell := range cells[i] {
			fmt.Fprintf(&b, "  %*s", width, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// finalStateTable starts a converged final-state comparison, one
// finalRow per run.
func finalStateTable(title string) Table {
	return Table{
		Title:  title,
		Header: []string{"algorithm", "completed", "failed", "ACT(s)", "AE"},
	}
}

// finalRow renders one run's converged metrics under label.
func finalRow(label string, final metrics.Snapshot) []string {
	return []string{
		label,
		fmt.Sprintf("%d", final.Completed),
		fmt.Sprintf("%d", final.Failed),
		fmt.Sprintf("%.0f", final.ACT),
		fmt.Sprintf("%.3f", final.AE),
	}
}
