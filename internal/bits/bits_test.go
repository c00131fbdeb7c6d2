package bits

import (
	"math/rand"
	"testing"
)

func TestDenseBasic(t *testing.T) {
	d := NewDense(130)
	if d.Len() != 130 {
		t.Fatalf("Len = %d", d.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		if d.Get(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		d.Set(i)
		if !d.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if c := d.Count(); c != 6 {
		t.Fatalf("Count = %d, want 6", c)
	}
	if d.SpaceBits() != 192 { // 3 words
		t.Fatalf("SpaceBits = %d, want 192", d.SpaceBits())
	}
}

func TestDenseSetIdempotent(t *testing.T) {
	d := NewDense(10)
	d.Set(5)
	d.Set(5)
	if d.Count() != 1 {
		t.Fatal("double Set must not double count")
	}
}

func TestDenseZeroLength(t *testing.T) {
	d := NewDense(0)
	if d.Count() != 0 || d.Len() != 0 {
		t.Fatal("zero-length bitset misbehaves")
	}
}

// Property: Dense agrees with a reference map under random set/get.
func TestDenseAgainstMapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		d := NewDense(n)
		ref := make(map[int]bool)
		for op := 0; op < 200; op++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				d.Set(i)
				ref[i] = true
			} else if d.Get(i) != ref[i] {
				t.Fatalf("trial %d: Get(%d) mismatch", trial, i)
			}
		}
		if d.Count() != len(ref) {
			t.Fatalf("trial %d: Count = %d, want %d", trial, d.Count(), len(ref))
		}
	}
}

func TestArenaConcatenatesDenseSets(t *testing.T) {
	var a Arena
	sizes := []int{1, 63, 64, 65, 300}
	offs := make([]int64, len(sizes))
	for si, n := range sizes {
		d := NewDense(n)
		for i := 0; i < n; i += si + 1 {
			d.Set(i)
		}
		offs[si] = a.AppendDense(d)
	}
	for si, n := range sizes {
		for i := 0; i < n; i++ {
			want := i%(si+1) == 0
			if got := a.Get(offs[si], int64(i)); got != want {
				t.Fatalf("set %d bit %d: got %v, want %v", si, i, got, want)
			}
		}
	}
	if a.Words() <= 0 || a.SpaceBits() != a.Words()*64 {
		t.Fatalf("arena accounting inconsistent: %d words, %d bits", a.Words(), a.SpaceBits())
	}
}

func TestArenaGrowAndSet(t *testing.T) {
	var a Arena
	off1 := a.Grow(2)
	off2 := a.Grow(1)
	a.Set(off1, 5)
	a.Set(off1, 127)
	a.Set(off2, 0)
	if !a.Get(off1, 5) || !a.Get(off1, 127) || !a.Get(off2, 0) {
		t.Fatal("set bits not readable")
	}
	if a.Get(off1, 6) || a.Get(off2, 1) {
		t.Fatal("unset bits read as set")
	}
}
