package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		want Record
		ok   bool
	}{
		{"BenchmarkFoo-8   500   7298 ns/op   507 B/op   6 allocs/op",
			Record{Name: "BenchmarkFoo-8", Iterations: 500, NsPerOp: 7298, BytesPerOp: 507, AllocsPerOp: 6}, true},
		// The -N GOMAXPROCS suffix stays in the name: a snapshot only
		// compares against a baseline taken at the same -cpu.
		{"BenchmarkFoo/N=4096-1 200 12.5 ns/op",
			Record{Name: "BenchmarkFoo/N=4096-1", Iterations: 200, NsPerOp: 12.5}, true},
		{"BenchmarkE1ORPKW2D/N=65536 20 9000 ns/op 1234567 bytes-resident 0 B/op 0 allocs/op",
			Record{Name: "BenchmarkE1ORPKW2D/N=65536", Iterations: 20, NsPerOp: 9000, BytesResident: 1234567}, true},
		// Custom units other than bytes-resident are ignored.
		{"BenchmarkStop/dense 3000 5000 ns/op 5.028 nodes/op 1918 units/op 3 allocs/op",
			Record{Name: "BenchmarkStop/dense", Iterations: 3000, NsPerOp: 5000, AllocsPerOp: 3}, true},
		// Malformed: too few fields, a non-numeric count or value, no ns/op.
		{"BenchmarkFoo 500", Record{}, false},
		{"BenchmarkFoo many 7298 ns/op", Record{}, false},
		{"BenchmarkFoo 500 fast ns/op", Record{}, false},
		{"BenchmarkFoo 500 507 B/op", Record{}, false},
	}
	for _, c := range cases {
		got, ok := parseLine(c.line)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("parseLine(%q) = %+v, %v; want %+v, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}

func TestMergeMinTakesMinimumPerMetric(t *testing.T) {
	recs := []Record{
		{Name: "A", Iterations: 200, NsPerOp: 30, BytesPerOp: 10, AllocsPerOp: 2, BytesResident: 900},
		{Name: "B", Iterations: 200, NsPerOp: 5},
		{Name: "A", Iterations: 200, NsPerOp: 20, BytesPerOp: 12, AllocsPerOp: 1, BytesResident: 950},
		{Name: "A", Iterations: 200, NsPerOp: 25, BytesPerOp: 8, AllocsPerOp: 3, BytesResident: 800},
	}
	got := mergeMin(recs)
	want := []Record{
		{Name: "A", Iterations: 200, NsPerOp: 20, BytesPerOp: 8, AllocsPerOp: 1, BytesResident: 800},
		{Name: "B", Iterations: 200, NsPerOp: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("mergeMin = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCompareBaselineExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", SnapshotFile{Records: []Record{
		{Name: "BenchmarkQuery", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "BenchmarkReplay", NsPerOp: 1000, AllocsPerOp: 2000},
	}})
	cases := []struct {
		name string
		recs []Record
		path string
		want int
	}{
		{"within tolerance", []Record{{Name: "BenchmarkQuery", NsPerOp: 190}, {Name: "BenchmarkReplay", NsPerOp: 900, AllocsPerOp: 2002}}, base, 0},
		{"slower", []Record{{Name: "BenchmarkQuery", NsPerOp: 201}}, base, 1},
		{"one new alloc on a zero-alloc path", []Record{{Name: "BenchmarkQuery", NsPerOp: 100, AllocsPerOp: 1}}, base, 1},
		{"allocs past 0.1%", []Record{{Name: "BenchmarkReplay", NsPerOp: 1000, AllocsPerOp: 2003}}, base, 1},
		{"baseline row not measured", []Record{{Name: "BenchmarkQuery", NsPerOp: 100}}, base, 1},
		{"no row matched", []Record{{Name: "BenchmarkOther", NsPerOp: 1}}, base, 1},
		{"baseline without records", []Record{{Name: "BenchmarkQuery", NsPerOp: 100}}, write("empty.json", SnapshotFile{}), 1},
		{"legacy bare array", []Record{{Name: "BenchmarkQuery", NsPerOp: 100}}, write("legacy.json", []Record{{Name: "BenchmarkQuery", NsPerOp: 100}}), 1},
		{"missing baseline", []Record{{Name: "BenchmarkQuery", NsPerOp: 100}}, filepath.Join(dir, "absent.json"), 1},
	}
	for _, c := range cases {
		if got := compareBaseline(c.recs, c.path, 2.0); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
