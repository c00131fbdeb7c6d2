package core

import "math"

// The paper's cost formulas as work-unit estimates, shared by benchkw's
// planner and internal/table1's bounds.

// OutEstimate accumulates the classic independence estimate of the output
// size, keyword by keyword:
//
//	estOUT = min(min_w |S_w|, |D| * prod_w (|S_w|/|D|) * sel(q))
//
// It prices benchkw's planner.
type OutEstimate struct {
	n, minDF, indep float64
}

// NewOutEstimate starts the estimate for a set of the given number of
// objects, before any keyword is added.
func NewOutEstimate(objects int) OutEstimate {
	return OutEstimate{n: float64(objects), minDF: math.MaxFloat64, indep: float64(objects)}
}

// Add folds in one query keyword's document frequency |S_w|.
func (e *OutEstimate) Add(df float64) {
	e.minDF = math.Min(e.minDF, df)
	e.indep *= df / e.n
}

// MinDF returns min_w |S_w| over the keywords added.
func (e *OutEstimate) MinDF() float64 { return e.minDF }

// Out returns estOUT for a region holding the fraction sel of the objects.
func (e *OutEstimate) Out(sel float64) float64 { return math.Min(e.minDF, e.indep*sel) }

// Theorem1Cost is Theorem 1's query bound N^{1-1/k} * (1 + OUT^{1/k}) with
// its constant taken as 1: the ceiling internal/table1 holds the Theorem 1
// rows to, and the framework's price in benchkw's planner.
func Theorem1Cost(n float64, k int, out float64) float64 {
	return pow(n, 1-1/float64(k)) * (1 + math.Pow(out, 1/float64(k)))
}
