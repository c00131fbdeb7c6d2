package main

import (
	"fmt"
	"math"
	"strings"
)

// fitPowerLaw fits y = c * x^e by least squares on (ln x, ln y) and returns
// the exponent e, the constant c, and the coefficient of determination R^2.
// Non-positive samples are skipped.
func fitPowerLaw(xs, ys []float64) (e, c, r2 float64) {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if n < 2 {
		return math.NaN(), math.NaN(), 0
	}
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN(), math.NaN(), 0
	}
	e = (n*sxy - sx*sy) / den
	lc := (sy - e*sx) / n
	c = math.Exp(lc)
	// R^2.
	my := sy / n
	var ssTot, ssRes float64
	for i := range lx {
		pred := lc + e*lx[i]
		ssRes += (ly[i] - pred) * (ly[i] - pred)
		ssTot += (ly[i] - my) * (ly[i] - my)
	}
	if ssTot == 0 {
		return e, c, 1
	}
	return e, c, 1 - ssRes/ssTot
}

// table renders an aligned plain-text table, one experiment report each.
type table struct {
	header []string
	rows   [][]string
}

// newTable starts a table with the given column headers.
func newTable(header ...string) *table { return &table{header: header} }

// addRow appends a row; values are formatted with %v, floats with 4
// significant digits.
func (t *table) addRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "nan"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 0.01 && math.Abs(v) < 1e6:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

// String renders the table.
func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
