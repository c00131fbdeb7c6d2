package main

import (
	"math"
	"strings"
	"testing"
)

func TestFitPowerLawExact(t *testing.T) {
	// y = 3 x^1.5.
	xs := []float64{1, 2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	e, c, r2 := fitPowerLaw(xs, ys)
	if math.Abs(e-1.5) > 1e-9 {
		t.Fatalf("exponent = %v, want 1.5", e)
	}
	if math.Abs(c-3) > 1e-9 {
		t.Fatalf("constant = %v, want 3", c)
	}
	if r2 < 0.999999 {
		t.Fatalf("R^2 = %v, want ~1", r2)
	}
}

func TestFitPowerLawConstant(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	ys := []float64{5, 5, 5, 5}
	e, _, _ := fitPowerLaw(xs, ys)
	if math.Abs(e) > 1e-9 {
		t.Fatalf("flat data exponent = %v, want 0", e)
	}
}

func TestFitPowerLawSkipsNonPositive(t *testing.T) {
	xs := []float64{1, 2, 0, 4, 8}
	ys := []float64{2, 4, -7, 8, 16}
	e, _, _ := fitPowerLaw(xs, ys)
	if math.Abs(e-1) > 1e-9 {
		t.Fatalf("exponent = %v, want 1", e)
	}
}

func TestFitPowerLawDegenerate(t *testing.T) {
	if e, _, _ := fitPowerLaw([]float64{1}, []float64{2}); !math.IsNaN(e) {
		t.Fatal("single point must yield NaN")
	}
	if e, _, _ := fitPowerLaw([]float64{3, 3}, []float64{2, 5}); !math.IsNaN(e) {
		t.Fatal("vertical data must yield NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("n", "ops", "note")
	tb.addRow(1024, 32.5, "fast")
	tb.addRow(1<<20, 1e9, "slow")
	out := tb.String()
	if !strings.Contains(out, "n") || !strings.Contains(out, "fast") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + separator + 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatalf("second line should be a separator:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		5:          "5",
		0.125:      "0.125",
		math.NaN(): "nan",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
