package spart

import (
	"math"
	"slices"

	"kwsc/internal/geom"
)

// Willard2D is a partition tree for R^2 in the style of Willard (1982),
// standing in for Chan's optimal partition tree in the SP-KW construction of
// Appendix D (DESIGN.md, substitution 1). Each node splits its weighted
// point set into four classes using two lines:
//
//  1. a vertical line through the weighted-median x-coordinate, and
//  2. a ham-sandwich cut: a line that simultaneously halves (by weight) the
//     points on each side of the vertical line, found by sign-bisection on
//     the cut angle.
//
// Any query line crosses at most one of the two splitting lines once each,
// so it meets at most 3 of the 4 regions, giving the worst-case crossing
// recurrence C(n) <= 3 C(n/4) + O(1) = O(n^{log4 3}) = O(n^0.7925).
// Objects lying exactly on a splitting line become pivots, which is how the
// framework's general-position removal (Appendix D.4) is realized
// constructively. When degeneracies defeat the ham-sandwich search (many
// cohincident coordinates), the splitter falls back to a two-level
// axis-median split, preserving balance and correctness.
type Willard2D struct {
	// MaxPivots bounds the pivot set a split may produce before falling
	// back to the axis-median split; 0 means the default of 16.
	MaxPivots int
}

func (w *Willard2D) maxPivots() int {
	if w.MaxPivots > 0 {
		return w.MaxPivots
	}
	return 16
}

// Fanout implements Splitter.
func (w *Willard2D) Fanout() int { return 4 }

// RootCell implements Splitter: the bounding square of the data, inflated so
// every point is interior.
func (w *Willard2D) RootCell(pts []geom.Point, objs []int32) Cell {
	if len(objs) == 0 {
		return geom.NewSquare(-1, -1, 1, 1)
	}
	lox, loy := pts[objs[0]][0], pts[objs[0]][1]
	hix, hiy := lox, loy
	for _, id := range objs[1:] {
		p := pts[id]
		if p[0] < lox {
			lox = p[0]
		}
		if p[0] > hix {
			hix = p[0]
		}
		if p[1] < loy {
			loy = p[1]
		}
		if p[1] > hiy {
			hiy = p[1]
		}
	}
	pad := 1 + (hix - lox) + (hiy - loy)
	return geom.NewSquare(lox-pad, loy-pad, hix+pad, hiy+pad)
}

// Split implements Splitter.
func (w *Willard2D) Split(cell Cell, objs []int32, pts []geom.Point, weight []int32, depth int) ([]Cell, []int8, bool) {
	poly := cell.(*geom.Polygon)
	total := totalWeight(objs, weight)
	// Step 1: vertical weighted-median line.
	xm, ok, _ := weightedMedian(slices.Clone(objs), func(id int32) float64 { return pts[id][0] }, weight)
	if !ok {
		return w.fallback(poly, objs, pts, weight)
	}
	var left, right []int32
	pivotsOnA := 0
	for _, id := range objs {
		switch x := pts[id][0]; {
		case x < xm:
			left = append(left, id)
		case x > xm:
			right = append(right, id)
		default:
			pivotsOnA++
		}
	}
	if pivotsOnA > w.maxPivots() || len(left) == 0 || len(right) == 0 {
		return w.fallback(poly, objs, pts, weight)
	}
	// Step 2: ham-sandwich cut by angle bisection. g(theta) is the weight
	// imbalance of the right set w.r.t. the left set's weighted-median line
	// of normal direction (cos theta, sin theta). Every step selects over
	// left in place, in whatever order the last step left it.
	cut := func(theta float64) (nx, ny, c float64, g int64) {
		nx, ny = math.Cos(theta), math.Sin(theta)
		c, _, _ = weightedMedian(left, func(id int32) float64 { return nx*pts[id][0] + ny*pts[id][1] }, weight)
		for _, id := range right {
			p := pts[id]
			v := nx*p[0] + ny*p[1]
			switch {
			case v < c:
				g += weightOf(weight, id)
			case v > c:
				g -= weightOf(weight, id)
			}
		}
		return
	}
	const theta0 = 0.0137
	lo, hi := theta0, theta0+math.Pi
	_, _, _, glo := cut(lo)
	_, _, _, ghi := cut(hi)
	var nx, ny, c float64
	found := false
	switch {
	case glo == 0:
		nx, ny, c, _ = cut(lo)
		found = true
	case ghi == 0:
		nx, ny, c, _ = cut(hi)
		found = true
	case (glo > 0) == (ghi > 0):
		// Discrete tie-handling broke antisymmetry; fall back.
	default:
		for iter := 0; iter < 64; iter++ {
			mid := (lo + hi) / 2
			mnx, mny, mc, gm := cut(mid)
			if gm == 0 {
				nx, ny, c, found = mnx, mny, mc, true
				break
			}
			if (gm > 0) == (glo > 0) {
				lo, glo = mid, gm
			} else {
				hi = mid
			}
		}
		if !found {
			// Interval has collapsed onto the jump angle; take the side
			// with the smaller imbalance and let near-line objects become
			// pivots below.
			nx, ny, c, _ = cut(lo)
			found = true
		}
	}
	if !found {
		return w.fallback(poly, objs, pts, weight)
	}
	// Classify every object; near-line objects become pivots.
	scale := 1.0
	for _, id := range objs {
		p := pts[id]
		for _, v := range []float64{p[0], p[1]} {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
	}
	band := 1e-9 * (scale + math.Abs(c))
	assign := make([]int8, len(objs))
	childW := make([]int64, 4)
	pivots := 0
	for i, id := range objs {
		p := pts[id]
		x := p[0]
		v := nx*p[0] + ny*p[1]
		var xs, ys int8
		switch {
		case x < xm:
			xs = 0
		case x > xm:
			xs = 1
		default:
			assign[i] = PivotChild
			pivots++
			continue
		}
		switch {
		case v < c-band:
			ys = 0
		case v > c+band:
			ys = 1
		default:
			assign[i] = PivotChild
			pivots++
			continue
		}
		assign[i] = 2*xs + ys
		childW[2*xs+ys] += weightOf(weight, id)
	}
	if pivots > w.maxPivots() {
		return w.fallback(poly, objs, pts, weight)
	}
	for _, cw := range childW {
		if float64(cw) > 0.45*float64(total) {
			return w.fallback(poly, objs, pts, weight)
		}
	}
	xLeft := geom.Halfspace{Coef: []float64{1, 0}, Bound: xm}
	xRight := geom.Halfspace{Coef: []float64{-1, 0}, Bound: -xm}
	below := geom.Halfspace{Coef: []float64{nx, ny}, Bound: c}
	above := geom.Halfspace{Coef: []float64{-nx, -ny}, Bound: -c}
	cells := []Cell{
		poly.ClipHalfplane(xLeft).ClipHalfplane(below),
		poly.ClipHalfplane(xLeft).ClipHalfplane(above),
		poly.ClipHalfplane(xRight).ClipHalfplane(below),
		poly.ClipHalfplane(xRight).ClipHalfplane(above),
	}
	return cells, assign, true
}

// fallback performs a two-level axis-median split (x then per-side y),
// which is always available and keeps the four cells convex polygons.
func (w *Willard2D) fallback(poly *geom.Polygon, objs []int32, pts []geom.Point, weight []int32) ([]Cell, []int8, bool) {
	xm, okx, _ := weightedMedian(slices.Clone(objs), func(id int32) float64 { return pts[id][0] }, weight)
	var left, right []int32
	for _, id := range objs {
		switch x := pts[id][0]; {
		case okx && x < xm:
			left = append(left, id)
		case okx && x > xm:
			right = append(right, id)
		case !okx:
			left = append(left, id)
		}
	}
	ymOf := func(side []int32) (float64, bool) {
		if len(side) == 0 {
			return 0, false
		}
		ym, ok, _ := weightedMedian(side, func(id int32) float64 { return pts[id][1] }, weight)
		return ym, ok
	}
	ylm, okl := ymOf(left)
	yrm, okr := ymOf(right)
	if !okx && !okl {
		return nil, nil, false // all points identical in x and y
	}
	assign := make([]int8, len(objs))
	for i, id := range objs {
		p := pts[id]
		var xs int8
		switch {
		case !okx:
			xs = 0
		case p[0] < xm:
			xs = 0
		case p[0] > xm:
			xs = 1
		default:
			assign[i] = PivotChild
			continue
		}
		ym, oky := ylm, okl
		if xs == 1 {
			ym, oky = yrm, okr
		}
		switch {
		case !oky:
			assign[i] = 2 * xs
		case p[1] < ym:
			assign[i] = 2 * xs
		case p[1] > ym:
			assign[i] = 2*xs + 1
		default:
			assign[i] = PivotChild
		}
	}
	if !okx {
		xm = math.Inf(1)
	}
	if !okl {
		ylm = math.Inf(1)
	}
	if !okr {
		yrm = math.Inf(1)
	}
	xLeft := geom.Halfspace{Coef: []float64{1, 0}, Bound: xm}
	xRight := geom.Halfspace{Coef: []float64{-1, 0}, Bound: -xm}
	cells := []Cell{
		poly.ClipHalfplane(xLeft).ClipHalfplane(geom.Halfspace{Coef: []float64{0, 1}, Bound: ylm}),
		poly.ClipHalfplane(xLeft).ClipHalfplane(geom.Halfspace{Coef: []float64{0, -1}, Bound: -ylm}),
		poly.ClipHalfplane(xRight).ClipHalfplane(geom.Halfspace{Coef: []float64{0, 1}, Bound: yrm}),
		poly.ClipHalfplane(xRight).ClipHalfplane(geom.Halfspace{Coef: []float64{0, -1}, Bound: -yrm}),
	}
	return cells, assign, true
}

// Relate implements Splitter.
func (w *Willard2D) Relate(c Cell, q geom.Region) geom.Relation {
	return q.RelatePolygon(c.(*geom.Polygon))
}
