package codec

import (
	"bytes"
	"testing"

	"kwsc/internal/pager"
	"kwsc/internal/workload"
)

// fuzzSeeds returns a valid dataset file and its damaged variants — one
// byte flipped in every section (the superblock and the page-CRC table
// among them) and in a data section's padding, and cuts at every page
// boundary — plus inputs that stop at the magic, so the corpus starts deep
// inside the container's checks instead of bouncing off the first.
func fuzzSeeds(f *testing.F, golden []byte) [][]byte {
	seeds := [][]byte{golden, {}, []byte("KWC2"), []byte("KWSC\x01")}
	c, err := ParseContainer(bytes.NewReader(golden), int64(len(golden)))
	if err != nil {
		f.Fatal(err)
	}
	flips := []int64{5, pager.PageSize - 2} // the superblock's version and checksum
	for _, s := range c.Sections {
		flips = append(flips, s.Off+s.Len/2)
		if s.ID != 0 {
			flips = append(flips, s.Off+pagesFor(s.Len)*pager.PageSize-1)
		}
	}
	for _, pos := range flips {
		flip := bytes.Clone(golden)
		flip[pos] ^= 0x41
		seeds = append(seeds, flip)
	}
	for cut := 0; cut < len(golden); cut += pager.PageSize {
		seeds = append(seeds, golden[:cut])
	}
	return seeds
}

// FuzzReadDataset asserts the dataset reader is total: arbitrary input
// either reads as a valid dataset that round-trips or fails with an error —
// never a panic, hang, or input-disproportionate allocation.
func FuzzReadDataset(f *testing.F) {
	ds := workload.Gen(workload.Config{Seed: 9, Objects: 40, Dim: 2, Vocab: 30, DocLen: 4})
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		f.Fatal(err)
	}
	for _, s := range fuzzSeeds(f, buf.Bytes()) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must re-encode to an equal dataset.
		var out bytes.Buffer
		if err := WriteDataset(&out, got); err != nil {
			t.Fatalf("accepted dataset fails to re-encode: %v", err)
		}
		back, err := ReadDataset(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded dataset fails to parse: %v", err)
		}
		if back.Len() != got.Len() || back.N() != got.N() {
			t.Fatalf("re-encode changed shape: (%d,%d) vs (%d,%d)", back.Len(), back.N(), got.Len(), got.N())
		}
	})
}
