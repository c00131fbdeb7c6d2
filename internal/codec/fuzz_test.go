package codec

import (
	"bytes"
	"testing"

	"kwsc/internal/workload"
)

// fuzzSeeds returns golden encodings plus deterministic bit-flipped and
// truncated variants, so the corpus starts deep inside the parser instead of
// bouncing off the magic check.
func fuzzSeeds(golden []byte) [][]byte {
	seeds := [][]byte{golden, {}, []byte("KWSC"), []byte("KWCP")}
	for _, pos := range []int{4, 5, 6, len(golden) / 2, len(golden) - 2} {
		if pos < 0 || pos >= len(golden) {
			continue
		}
		flip := append([]byte(nil), golden...)
		flip[pos] ^= 0x41
		seeds = append(seeds, flip)
		seeds = append(seeds, golden[:pos])
	}
	return seeds
}

// FuzzReadDataset asserts the dataset decoder is total: arbitrary input
// either round-trips as a valid dataset or fails with an error — never a
// panic, hang, or input-disproportionate allocation (the varint counts in a
// 12-byte stream can claim gigabytes).
func FuzzReadDataset(f *testing.F) {
	ds := workload.Gen(workload.Config{Seed: 9, Objects: 40, Dim: 2, Vocab: 30, DocLen: 4})
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		f.Fatal(err)
	}
	for _, s := range fuzzSeeds(buf.Bytes()) {
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
