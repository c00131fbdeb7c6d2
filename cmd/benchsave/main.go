// Command benchsave converts `go test -bench -benchmem` output on stdin into
// a JSON snapshot, one record per benchmark, so perf baselines can be
// committed and diffed across changes (see `make bench-save`). With -compare
// it instead checks fresh results against a committed baseline and exits
// non-zero on regression (see `make bench-compare`).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Record is one micro-benchmark measurement. BytesResident captures the
// custom "bytes-resident" metric the flat-layout benchmarks report via
// b.ReportMetric: the live heap the built index retains, as opposed to
// B/op allocation churn.
type Record struct {
	Name          string  `json:"name"`
	Iterations    int64   `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp   int64   `json:"allocs_per_op,omitempty"`
	BytesResident int64   `json:"bytes_resident,omitempty"`
}

// SnapshotFile is the committed BENCH_*.json schema: the micro-benchmark
// records and the metrics registry the run emitted (the `# kwsc-metrics:`
// line TestMain prints under -bench).
type SnapshotFile struct {
	Records []Record        `json:"records,omitempty"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// metricsPrefix marks the registry snapshot line in benchmark output.
const metricsPrefix = "# kwsc-metrics: "

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to compare stdin results against (exits 1 on regression)")
	tolerance := flag.Float64("tolerance", 2.0, "with -compare: max allowed ns/op ratio vs baseline")
	flag.Parse()

	var snap SnapshotFile
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, metricsPrefix) {
			snap.Metrics = json.RawMessage(strings.TrimPrefix(line, metricsPrefix))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if r, ok := parseLine(line); ok {
			snap.Records = append(snap.Records, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchsave: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(snap.Records) == 0 {
		fmt.Fprintln(os.Stderr, "benchsave: no benchmark lines on stdin")
		os.Exit(1)
	}
	snap.Records = mergeMin(snap.Records)

	if *compare != "" {
		os.Exit(compareBaseline(snap.Records, *compare, *tolerance))
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsave: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchsave: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchsave: wrote %d records to %s\n", len(snap.Records), *out)
}

// compareBaseline checks fresh records against the committed baseline:
// ns/op may drift up to the tolerance ratio — even the min-of-count
// measurement swings past 1.8x on identical binaries for microsecond-scale
// and fsync-bound benchmarks on shared hardware, so the default tolerance
// is a coarse catastrophic-regression tripwire, not a precision gate — but
// allocs/op is exact up to 0.1% of the baseline count — the zero-allocation
// query paths are a structural property and any new allocation there is a
// regression, not noise, while bulk benchmarks (recovery replay at ~200k
// allocs/op) legitimately jitter by a handful of map-growth allocations.
// A baseline row the run did not measure fails the comparison, so a renamed
// or deleted benchmark cannot silently stop being guarded; a measured row
// with no baseline is reported but not fatal.
func compareBaseline(recs []Record, path string, tolerance float64) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsave: reading baseline: %v\n", err)
		return 1
	}
	base, err := parseBaseline(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsave: parsing baseline %s: %v\n", path, err)
		return 1
	}
	byName := make(map[string]Record, len(base))
	for _, b := range base {
		byName[b.Name] = b
	}
	failures := 0
	matched := 0
	for _, r := range recs {
		b, ok := byName[r.Name]
		if !ok {
			fmt.Printf("  new   %-50s %12.0f ns/op (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		matched++
		delete(byName, r.Name)
		status := "ok"
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*tolerance {
			status = "SLOWER"
			failures++
		}
		if r.AllocsPerOp > b.AllocsPerOp+b.AllocsPerOp/1000 {
			status = "ALLOCS"
			failures++
		}
		fmt.Printf("  %-6s%-50s %12.0f ns/op (base %.0f, %.2fx)  %d allocs (base %d)\n",
			status, r.Name, r.NsPerOp, b.NsPerOp, ratio(r.NsPerOp, b.NsPerOp),
			r.AllocsPerOp, b.AllocsPerOp)
	}
	for name := range byName {
		fmt.Printf("  gone  %s (in baseline, not measured)\n", name)
		failures++
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "benchsave: no benchmark matched the baseline")
		return 1
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchsave: %d failure(s) vs %s (tolerance %.2fx)\n",
			failures, path, tolerance)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchsave: %d benchmarks within %.2fx of %s\n", matched, tolerance, path)
	return 0
}

// mergeMin collapses repeated measurements of the same benchmark (go test
// -count=N) into one record holding the minimum of each metric. The minimum
// is the noise-robust statistic: scheduler preemption and cache pollution
// only ever add time (or allocations), so the smallest observation is the
// closest to the code's true cost.
func mergeMin(recs []Record) []Record {
	idx := make(map[string]int, len(recs))
	out := recs[:0]
	for _, r := range recs {
		i, seen := idx[r.Name]
		if !seen {
			idx[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		if r.NsPerOp < out[i].NsPerOp {
			out[i].NsPerOp = r.NsPerOp
		}
		if r.BytesPerOp < out[i].BytesPerOp {
			out[i].BytesPerOp = r.BytesPerOp
		}
		if r.AllocsPerOp < out[i].AllocsPerOp {
			out[i].AllocsPerOp = r.AllocsPerOp
		}
		if r.BytesResident < out[i].BytesResident {
			out[i].BytesResident = r.BytesResident
		}
	}
	return out
}

// parseBaseline reads a {records, metrics} snapshot. One without records
// can gate nothing, so it is an error.
func parseBaseline(raw []byte) ([]Record, error) {
	var snap SnapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, err
	}
	if len(snap.Records) == 0 {
		return nil, errors.New("no benchmark records")
	}
	return snap.Records, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// parseLine decodes one result line, e.g.
//
//	BenchmarkFoo/N=4096-8   500   7298 ns/op   507 B/op   6 allocs/op
func parseLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	r := Record{Name: fields[0], Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seenNs = true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "bytes-resident":
			r.BytesResident = int64(v)
		}
	}
	return r, seenNs
}
