package bitpack

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// unpackBytes decodes l block by block through DecodeBlockBytes, handing each
// block exactly its own payload as serialized little-endian bytes.
func unpackBytes(a *PackedLists, l List) []int32 {
	var out []int32
	for _, b := range a.Blocks(l) {
		payload := make([]byte, 8*b.Words())
		for i := 0; i < b.Words(); i++ {
			binary.LittleEndian.PutUint64(payload[8*i:], a.words[int(b.Off)+i])
		}
		out = DecodeBlockBytes(b, payload, out)
	}
	return out
}

// roundTrip packs ids and requires both decoders — words in the arena and
// bytes as serialized — to reproduce them.
func roundTrip(t testing.TB, ids []int32) {
	t.Helper()
	a, l := PackDeltas(ids)
	if err := a.Validate(l); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for name, got := range map[string][]int32{"words": UnpackDeltas(a, l), "bytes": unpackBytes(a, l)} {
		if len(got) != len(ids) {
			t.Fatalf("%s round trip length: got %d, want %d", name, len(got), len(ids))
		}
		for i := range got {
			if got[i] != ids[i] {
				t.Fatalf("%s round trip element %d: got %d, want %d", name, i, got[i], ids[i])
			}
		}
	}
}

func TestPackDeltasRoundTrip(t *testing.T) {
	cases := [][]int32{
		nil,
		{},
		{0},
		{42},
		{-7},
		{math.MaxInt32},
		{math.MinInt32},
		{math.MinInt32, math.MaxInt32, math.MinInt32},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},             // descending: zigzag handles negative deltas
		{7, 7, 7, 7, 7, 7},          // width 0 blocks
		{0, 1 << 30, 1, 1<<30 + 1},  // alternating huge/small deltas
		{-5, 10, -20, 40, -80, 160}, // sign-alternating
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestPackDeltasBlockBoundaries(t *testing.T) {
	for _, n := range []int{BlockSize - 1, BlockSize, BlockSize + 1, 2 * BlockSize, 2*BlockSize + 3} {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i * 3)
		}
		roundTrip(t, ids)
		a, l := PackDeltas(ids)
		wantBlocks := (n + BlockSize - 1) / BlockSize
		if int(l.NumBlocks) != wantBlocks {
			t.Fatalf("n=%d: got %d blocks, want %d", n, l.NumBlocks, wantBlocks)
		}
		// Sorted input: each block's Max is its last value, and maxima are
		// non-decreasing — the invariant the skip intersection relies on.
		blocks := a.Blocks(l)
		prevMax := int32(math.MinInt32)
		off := 0
		for _, b := range blocks {
			if b.Max < prevMax {
				t.Fatalf("block maxima not monotone: %d after %d", b.Max, prevMax)
			}
			if last := ids[off+int(b.N)-1]; b.Max != last {
				t.Fatalf("sorted block Max %d != last value %d", b.Max, last)
			}
			prevMax = b.Max
			off += int(b.N)
		}
	}
}

func TestPackDeltasRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(1000)
		ids := make([]int32, n)
		mode := trial % 3
		v := int32(rng.Intn(100))
		for i := range ids {
			switch mode {
			case 0: // sorted, small gaps (posting-list shape)
				v += int32(1 + rng.Intn(50))
				ids[i] = v
			case 1: // arbitrary values
				ids[i] = int32(rng.Uint32())
			case 2: // long runs of equal values
				if rng.Intn(10) == 0 {
					v = int32(rng.Intn(1 << 20))
				}
				ids[i] = v
			}
		}
		roundTrip(t, ids)
	}
}

func TestArenaSharing(t *testing.T) {
	var a PackedLists
	lists := make([]List, 0, 50)
	want := make([][]int32, 0, 50)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		n := rng.Intn(400)
		ids := make([]int32, n)
		v := int32(0)
		for j := range ids {
			v += int32(1 + rng.Intn(9))
			ids[j] = v
		}
		lists = append(lists, a.Append(ids))
		want = append(want, ids)
	}
	for i, l := range lists {
		got := UnpackDeltas(&a, l)
		if len(got) != len(want[i]) {
			t.Fatalf("list %d: length %d, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("list %d element %d: got %d, want %d", i, j, got[j], want[i][j])
			}
		}
	}
	if a.SpaceWords() <= 0 {
		t.Fatal("arena space must be positive")
	}
}

func TestDecodeBlockNoAlloc(t *testing.T) {
	ids := make([]int32, BlockSize)
	for i := range ids {
		ids[i] = int32(i * 7)
	}
	a, l := PackDeltas(ids)
	b := a.Blocks(l)[0]
	dst := make([]int32, 0, BlockSize)
	allocs := testing.AllocsPerRun(100, func() {
		dst = a.DecodeBlock(b, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("DecodeBlock into a sized buffer allocates %v per op, want 0", allocs)
	}
}

func TestValidateRejectsCorruptHandles(t *testing.T) {
	a, l := PackDeltas([]int32{1, 5, 9, 200000})
	bad := []List{
		{Block: -1, NumBlocks: 1, N: 4},
		{Block: 0, NumBlocks: 99, N: 4},
		{Block: 0, NumBlocks: l.NumBlocks, N: l.N + 1},
	}
	for i, h := range bad {
		if err := a.Validate(h); err == nil {
			t.Fatalf("case %d: corrupt handle passed validation", i)
		}
	}
}
