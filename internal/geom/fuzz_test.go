package geom

import (
	"math"
	"testing"
)

// FuzzPolygonClip checks that clipping never yields a polygon containing a
// point outside the clip halfplane (soundness of the Willard cells).
func FuzzPolygonClip(f *testing.F) {
	f.Add(1.0, 0.0, 0.5, 0.3, 0.3)
	f.Add(0.0, 1.0, 0.25, 0.7, 0.2)
	f.Add(-1.0, 1.0, 0.0, 0.5, 0.5)
	f.Add(0.5, -0.25, 1e6, 0.1, 0.9)
	f.Fuzz(func(t *testing.T, a, b, c, px, py float64) {
		for _, v := range []float64{a, b, c, px, py} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if math.Abs(a) > 1e9 || math.Abs(b) > 1e9 || math.Abs(c) > 1e9 {
			t.Skip()
		}
		if math.Abs(a)+math.Abs(b) < 1e-9 {
			t.Skip()
		}
		h := Halfspace{Coef: []float64{a, b}, Bound: c}
		clipped := NewSquare(0, 0, 1, 1).ClipHalfplane(h)
		p := Point{math.Mod(math.Abs(px), 1), math.Mod(math.Abs(py), 1)}
		margin := h.Eval(p) - h.Bound
		scale := hsScale(h, p)
		if margin > 1e-6*scale && clipped.ContainsPoint(p) {
			t.Fatalf("clip kept excluded point %v (margin %g)", p, margin)
		}
		if margin < -1e-6*scale && !clipped.ContainsPoint(p) {
			t.Fatalf("clip lost retained point %v (margin %g)", p, margin)
		}
	})
}

// FuzzSphereRelateRect checks the exact sphere/box classification against
// point sampling on a deterministic lattice inside the box.
func FuzzSphereRelateRect(f *testing.F) {
	f.Add(0.5, 0.5, 0.3, 0.2, 0.2, 0.6, 0.6)
	f.Add(0.0, 0.0, 1.0, -2.0, -2.0, 2.0, 2.0)
	f.Fuzz(func(t *testing.T, cx, cy, r, lox, loy, hix, hiy float64) {
		for _, v := range []float64{cx, cy, r, lox, loy, hix, hiy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		if r <= 0 || lox >= hix || loy >= hiy {
			t.Skip()
		}
		s := NewSphere(Point{cx, cy}, r)
		rel := s.RelateRect([]float64{lox, loy}, []float64{hix, hiy})
		const grid = 8
		for i := 0; i <= grid; i++ {
			for j := 0; j <= grid; j++ {
				// Rounding can carry a lattice point past hi; a point outside
				// the box says nothing of its relation.
				p := Point{
					min(lox+float64(i)/grid*(hix-lox), hix),
					min(loy+float64(j)/grid*(hiy-loy), hiy),
				}
				in := s.ContainsPoint(p)
				if rel == Disjoint && in {
					t.Fatalf("Disjoint but %v inside", p)
				}
				if rel == Covered && !in {
					t.Fatalf("Covered but %v outside", p)
				}
			}
		}
	})
}

// FuzzLiftMembership re-checks the lifting equivalence on fuzzer-chosen
// inputs (the crux of Corollary 6).
func FuzzLiftMembership(f *testing.F) {
	f.Add(0.3, 0.4, 0.5, 0.5, 0.25)
	f.Fuzz(func(t *testing.T, px, py, cx, cy, r float64) {
		for _, v := range []float64{px, py, cx, cy, r} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		if r <= 0 {
			t.Skip()
		}
		s := NewSphere(Point{cx, cy}, r)
		p := Point{px, py}
		// Skip points within float tolerance of the boundary.
		if math.Abs(s.Center.L2Sq(p)-r*r) < 1e-9*(1+r*r) {
			t.Skip()
		}
		if s.ContainsPoint(p) != LiftSphere(s).Contains(Lift(p)) {
			t.Fatalf("lifting disagreement: sphere %v/%v point %v", s.Center, r, p)
		}
	})
}
