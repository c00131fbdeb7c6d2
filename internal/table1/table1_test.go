package table1

import (
	"math"
	"math/rand"
	"testing"
)

// TestTable1 holds every case of every row to its claim at the case's Test
// sizes: ops ÷ bound ≤ slack at each size, and, where the case sets a
// window, the exponent of ops in X between its first and last size inside
// it. Work units are deterministic, so a ratio that moves is a changed
// query path, not noise. The ratios are logged (-v) for re-setting a slack.
func TestTable1(t *testing.T) {
	for _, r := range Rows {
		env := Env{Seed: 1, Rng: rand.New(rand.NewSource(1 + r.Seed))}
		for _, c := range r.Cases {
			sizes := c.Sizes[Test]
			if c.Bound == nil || len(sizes) == 0 {
				continue
			}
			name := r.ID
			if c.Name != "" {
				name += "/" + c.Name
			}
			t.Run(name, func(t *testing.T) {
				if testing.Short() && sizes[len(sizes)-1].Objects > 1<<16 {
					t.Skip("sizes too large for -short")
				}
				var ops, xs []float64
				for _, at := range sizes {
					in, err := c.Gen(env, at)
					if err != nil {
						t.Fatal(err)
					}
					m, err := in.Run()
					if err != nil {
						t.Fatalf("%+v: %v", at, err)
					}
					ratio := m.Ops / c.Bound(in, m)
					t.Logf("%+v: N=%.0f ops=%.1f ops/bound=%.3f", at, in.N, m.Ops, ratio)
					if !(ratio <= c.Slack) {
						t.Errorf("%s at %+v: ops %.1f ÷ bound %.1f = %.3f exceeds the slack %g",
							r.Claim, at, m.Ops, c.Bound(in, m), ratio, c.Slack)
					}
					ops, xs = append(ops, m.Ops), append(xs, in.X)
				}
				if c.Window != [2]float64{} {
					last := len(ops) - 1
					e := math.Log(ops[last]/ops[0]) / math.Log(xs[last]/xs[0])
					t.Logf("exponent %.3f", e)
					if !(e >= c.Window[0] && e <= c.Window[1]) {
						t.Errorf("%s: ops %.0f → %.0f is exponent %.3f in X, outside %v", r.Claim, ops[0], ops[last], e, c.Window)
					}
				}
			})
		}
	}
}

// Every row's claim has a checked case at two sizes or more.
func TestTable1ChecksEveryRow(t *testing.T) {
	for _, r := range Rows {
		checked := false
		for _, c := range r.Cases {
			checked = checked || (c.Bound != nil && c.Slack > 0 && len(c.Sizes[Test]) >= 2)
		}
		if !checked {
			t.Errorf("row %s (%s) has no case checked at two sizes", r.ID, r.Claim)
		}
	}
}
