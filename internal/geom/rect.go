package geom

import (
	"fmt"
	"math"
	"strings"
)

// Rect is a closed d-rectangle [Lo[0],Hi[0]] x ... x [Lo[d-1],Hi[d-1]]
// (footnote 1 of the paper). Bounds may be -Inf/+Inf, which the Appendix F
// reductions use for half-open ranges.
type Rect struct {
	Lo, Hi []float64
}

// NewRect returns the rectangle with the given bounds. It panics if the
// slices have different lengths or if some Lo[i] > Hi[i] (an empty
// rectangle must be represented explicitly by the caller, never passed as a
// query).
func NewRect(lo, hi []float64) *Rect {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("geom: rect bounds of mismatched dimensions %d and %d", len(lo), len(hi)))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("geom: empty rectangle on dimension %d: [%v,%v]", i, lo[i], hi[i]))
		}
	}
	return &Rect{Lo: lo, Hi: hi}
}

// UniverseRect returns the rectangle covering all of R^d.
func UniverseRect(d int) *Rect {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := 0; i < d; i++ {
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	return &Rect{Lo: lo, Hi: hi}
}

// Dim returns the dimensionality of the rectangle.
func (r *Rect) Dim() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r *Rect) Clone() *Rect {
	lo := make([]float64, len(r.Lo))
	hi := make([]float64, len(r.Hi))
	copy(lo, r.Lo)
	copy(hi, r.Hi)
	return &Rect{Lo: lo, Hi: hi}
}

// String implements fmt.Stringer.
func (r *Rect) String() string {
	var b strings.Builder
	for i := range r.Lo {
		if i > 0 {
			b.WriteString(" x ")
		}
		fmt.Fprintf(&b, "[%g,%g]", r.Lo[i], r.Hi[i])
	}
	return b.String()
}

// ContainsPoint reports whether p lies in the closed rectangle; a NaN
// coordinate lies in no interval.
func (r *Rect) ContainsPoint(p Point) bool {
	for i := range r.Lo {
		if !(r.Lo[i] <= p[i] && p[i] <= r.Hi[i]) {
			return false
		}
	}
	return true
}

// ContainsRect reports whether the box [lo,hi] is fully inside r.
func (r *Rect) ContainsRect(lo, hi []float64) bool {
	for i := range r.Lo {
		if lo[i] < r.Lo[i] || hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// IntersectsRect reports whether r and the box [lo,hi] share a point.
func (r *Rect) IntersectsRect(lo, hi []float64) bool {
	for i := range r.Lo {
		if hi[i] < r.Lo[i] || lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// RelateRect implements Region.
func (r *Rect) RelateRect(lo, hi []float64) Relation {
	if !r.IntersectsRect(lo, hi) {
		return Disjoint
	}
	if r.ContainsRect(lo, hi) {
		return Covered
	}
	return Crossing
}

// RelatePolygon implements Region: the rectangle is treated as the
// intersection of up to 2d halfplanes and related to the polygon by clipping.
func (r *Rect) RelatePolygon(poly *Polygon) Relation {
	return relatePolygonHalfspaces(poly, r.Halfspaces())
}

// Halfspaces returns the rectangle as a conjunction of linear constraints,
// omitting infinite bounds. This is the observation of Section 1.1 that a
// d-rectangle is the conjunction of at most 2d = O(1) linear constraints.
func (r *Rect) Halfspaces() []Halfspace {
	d := len(r.Lo)
	hs := make([]Halfspace, 0, 2*d)
	for i := 0; i < d; i++ {
		if !math.IsInf(r.Lo[i], -1) {
			c := make([]float64, d)
			c[i] = -1
			hs = append(hs, Halfspace{Coef: c, Bound: -r.Lo[i]})
		}
		if !math.IsInf(r.Hi[i], 1) {
			c := make([]float64, d)
			c[i] = 1
			hs = append(hs, Halfspace{Coef: c, Bound: r.Hi[i]})
		}
	}
	return hs
}

// Center returns the center point of a finite rectangle.
func (r *Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// BoundingRect returns the smallest rectangle covering all the given points.
// It panics if pts is empty.
func BoundingRect(pts []Point) *Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	d := len(pts[0])
	lo := make([]float64, d)
	hi := make([]float64, d)
	copy(lo, pts[0])
	copy(hi, pts[0])
	for _, p := range pts[1:] {
		for i := 0; i < d; i++ {
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
			if p[i] > hi[i] {
				hi[i] = p[i]
			}
		}
	}
	return &Rect{Lo: lo, Hi: hi}
}
