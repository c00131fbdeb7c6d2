package bitpack

import (
	"math/rand"
	"slices"
	"testing"
)

// ascending returns n distinct ascending ids with random gaps in [1, maxGap].
func ascending(rng *rand.Rand, n, maxGap int) []int32 {
	ids := make([]int32, n)
	v := int32(-1)
	for i := range ids {
		v += 1 + int32(rng.Intn(maxGap))
		ids[i] = v
	}
	return ids
}

// cursorsOver returns one raw and one packed cursor over ids.
func cursorsOver(ids []int32) (raw, packed *Cursor) {
	raw, packed = new(Cursor), new(Cursor)
	raw.ResetRaw(ids)
	a, l := PackDeltas(ids)
	packed.Reset(a, l)
	return raw, packed
}

// seekNaive is the specification of Seek over an ascending list.
func seekNaive(ids []int32, target int32) (int32, bool) {
	i, _ := slices.BinarySearch(ids, target)
	if i == len(ids) {
		return 0, false
	}
	return ids[i], true
}

// Raw and packed cursors answer every non-decreasing target sequence exactly
// as a binary search over the list does, at every length around the block
// boundaries.
func TestCursorSeekMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 127, 128, 129, 255, 256, 257, 1000} {
		for _, maxGap := range []int{1, 3, 50} {
			ids := ascending(rng, n, maxGap)
			if raw, packed := cursorsOver(ids); raw.Len() != n || packed.Len() != n {
				t.Fatalf("Len() = %d raw, %d packed, want %d", raw.Len(), packed.Len(), n)
			}
			for trial := 0; trial < 20; trial++ {
				raw, packed := cursorsOver(ids)
				target := int32(0)
				for step := 0; step < 2*n+4; step++ {
					target += int32(rng.Intn(2 * maxGap))
					want, wantOK := seekNaive(ids, target)
					for name, c := range map[string]*Cursor{"raw": raw, "packed": packed} {
						got, ok := c.Seek(target)
						if ok != wantOK || (ok && got != want) {
							t.Fatalf("n=%d gap=%d %s Seek(%d) = %d,%v want %d,%v", n, maxGap, name, target, got, ok, want, wantOK)
						}
					}
					if !wantOK {
						break
					}
				}
			}
		}
	}
}

// intersect leapfrogs two cursors the way the callers do, also counting how
// many distinct blocks the second cursor decoded.
func intersect(drive, other *Cursor) (out []int32, decoded int) {
	lastDec := -1
	for target := int32(0); ; {
		id, ok := drive.Seek(target)
		if !ok {
			return out, decoded
		}
		v, ok := other.Seek(id)
		if other.dec != lastDec {
			lastDec = other.dec
			decoded++
		}
		if !ok {
			return out, decoded
		}
		if v == id {
			out = append(out, id)
			target = id + 1
		} else {
			target = v
		}
	}
}

// Adversarial skew: a 3-id list against a 10^5-id list. The long list's
// cursor must gallop — over the directory when packed — and decode no more
// blocks than there are candidates.
func TestCursorSkewedIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	long := ascending(rng, 100_000, 4)
	for i := range long {
		long[i] *= 2 // all even, so an odd id is a sure miss
	}
	short := []int32{long[17], long[50_000] + 1, long[99_998]}
	want := []int32{short[0], short[2]}
	for _, packedLong := range []bool{false, true} {
		drive, other := new(Cursor), new(Cursor)
		drive.ResetRaw(short)
		if packedLong {
			a, l := PackDeltas(long)
			other.Reset(a, l)
		} else {
			other.ResetRaw(long)
		}
		got, decoded := intersect(drive, other)
		if !slices.Equal(got, want) {
			t.Fatalf("packed=%v: intersection %v, want %v", packedLong, got, want)
		}
		if packedLong && decoded > len(short) {
			t.Fatalf("decoded %d blocks of the long list for %d candidates", decoded, len(short))
		}
	}
}

// A block whose First answers the seek is never decoded.
func TestCursorAnswersFromDirectory(t *testing.T) {
	ids := ascending(rand.New(rand.NewSource(3)), 5*BlockSize, 3)
	a, l := PackDeltas(ids)
	var c Cursor
	c.Reset(a, l)
	for b := 0; b < 5; b++ {
		first := ids[b*BlockSize]
		if got, ok := c.Seek(first); !ok || got != first || c.dec != -1 {
			t.Fatalf("block %d: Seek(First) = %d,%v with dec=%d, want %d from the directory", b, got, ok, c.dec, first)
		}
	}
	// Seeking into the last block's interior now decodes it, and only it.
	want := ids[4*BlockSize+9]
	if got, ok := c.Seek(want); !ok || got != want || c.dec != 4 {
		t.Fatalf("interior Seek = %d,%v with dec=%d, want %d with dec=4", got, ok, c.dec, want)
	}
}

// Intra-block disorder (a corrupt image whose directory still validates):
// every id a cursor returns is in the list, >= the target and inside its
// block's [First, Max] window, and the walk terminates — so an intersection
// over such a list is a subset of the true one.
func TestCursorDisorderedBlockYieldsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		ids := ascending(rng, 3*BlockSize+17, 5)
		bad := slices.Clone(ids)
		for b := 0; b < 3; b++ { // shuffle each full block's interior
			in := bad[b*BlockSize+1 : (b+1)*BlockSize-1]
			rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		}
		a, l := PackDeltas(bad)
		var c Cursor
		c.Reset(a, l)
		seeks := 0
		for target := int32(0); ; seeks++ {
			if seeks > len(ids) {
				t.Fatal("cursor did not terminate")
			}
			v, ok := c.Seek(target)
			if !ok {
				break
			}
			if v < target {
				t.Fatalf("Seek(%d) returned %d", target, v)
			}
			if _, found := slices.BinarySearch(ids, v); !found {
				t.Fatalf("Seek(%d) returned %d, which the list does not hold", target, v)
			}
			target = v + 1 + int32(rng.Intn(3))
		}
	}
}

func TestCursorSeekNoAlloc(t *testing.T) {
	ids := ascending(rand.New(rand.NewSource(5)), 4*BlockSize, 3)
	a, l := PackDeltas(ids)
	var c Cursor
	allocs := testing.AllocsPerRun(50, func() {
		c.Reset(a, l)
		for target := int32(0); ; target += 7 {
			if _, ok := c.Seek(target); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("packed Seek allocates %v per walk, want 0", allocs)
	}
}
