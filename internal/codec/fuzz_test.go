package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
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
// never a panic, hang, or input-disproportionate allocation. It runs in two
// modes. With sec 0 the input is read as it is: flipped bytes, cut files and
// broken framing, which the container's checks and page checksums refuse.
// Otherwise one value of one of the three column sections of a valid file —
// at, wrapped to the column, set to v — is changed and the container
// re-sealed through WriteContainer, so every checksum holds and only the
// column checks (dataset.FromColumns) stand between the lie and a dataset.
func FuzzReadDataset(f *testing.F) {
	ds := workload.Gen(workload.Config{Seed: 9, Objects: 40, Dim: 2, Vocab: 30, DocLen: 4})
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		f.Fatal(err)
	}
	golden := buf.Bytes()
	for _, s := range fuzzSeeds(f, golden) {
		f.Add(s, uint8(0), uint32(0), uint64(0))
	}
	for sec := uint8(1); sec <= 3; sec++ {
		for _, at := range []uint32{0, 1, 7, 40} {
			for _, v := range []uint64{0, 1, 2, 1 << 31, math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), math.MaxUint64} {
				f.Add([]byte(nil), sec, at, v)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sec uint8, at uint32, v uint64) {
		if sec %= 4; sec != 0 {
			data = resealValue(t, golden, []uint32{SecFlatPoints, SecFlatDocStart, SecFlatDocWords}[sec-1], at, v)
		}
		got, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			if sec != 0 && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("a re-sealed file refused with %v, want ErrCorrupt", err)
			}
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

// resealValue returns the container raw with value at of section id, wrapped
// to the section's length, set to v (its low 32 bits in a section of 4-byte
// values), re-sealed through WriteContainer: every checksum of the result is
// right.
func resealValue(t *testing.T, raw []byte, id, at uint32, v uint64) []byte {
	t.Helper()
	c, err := ParseContainer(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var secs []Section
	for _, s := range c.Sections {
		if s.ID == SecPageCRC {
			continue
		}
		data, err := c.SectionBytes(bytes.NewReader(raw), s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.ID == id && len(data) > 0 {
			data = bytes.Clone(data)
			if id == SecFlatDocWords {
				binary.LittleEndian.PutUint32(data[4*(int(at)%(len(data)/4)):], uint32(v))
			} else {
				binary.LittleEndian.PutUint64(data[8*(int(at)%(len(data)/8)):], v)
			}
		}
		secs = append(secs, Section{ID: s.ID, Data: data})
	}
	var out bytes.Buffer
	if err := WriteContainer(&out, c.Meta, secs); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
