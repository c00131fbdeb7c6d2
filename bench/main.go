// Command bench measures kwscd's serving path end to end and layer by layer:
// four frozen workloads driven closed-loop over a real net/http listener,
// every timing corrected for the host's speed by a calibration probe, every
// answer checked against a brute-force oracle. See README.md.
//
//	bash bench/run.sh --workload tiny-scatter --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                 # all four workloads, untraced then traced
//	bash bench/run.sh -aa 10          # two alternating sets of 10 runs, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run (empty: all four, each in its own process)")
		seed     = flag.Int64("seed", 1, "seed of the corpus and the request stream")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured phase at reference host speed")
		trace    = flag.Int("trace", 0, "0: untraced run printing the end-to-end metrics; 1: traced run printing the per-layer metrics")
		aa       = flag.Int("aa", 0, "run two alternating sets of N runs per workload (seeds seed..seed+N-1) and compare them")
		data     = flag.String("data", ".bench_build/data", "directory under which data directories are made")
		out      = flag.String("out", "bench/out", "directory for trace-<workload>.json")
		corrupt  = flag.Bool("corrupt-oracle", false, "empty the oracle, to show that a wrong answer fails the run")
	)
	flag.Parse()
	// The reference host has two cores; pinning the scheduler to two keeps
	// the scatter's parallelism the same wherever the benchmark runs.
	runtime.GOMAXPROCS(2)

	switch {
	case *aa > 0:
		return runAA(*aa, *seed, *seconds)
	case *workload == "":
		return runAll(*seed, *seconds)
	}
	spec := specByName(*workload)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	probe, err := newProber()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer probe.close()
	cfg := &runConfig{
		seed: *seed, seconds: *seconds, dataRoot: *data, outDir: *out, scale: 1, corruptOracle: *corrupt,
		log:   func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) },
		probe: probe,
	}
	run := runTimed
	if *trace != 0 {
		run = runTraced
	}
	rep, err := run(spec, cfg)
	if rep != nil {
		// The result object is the last line of standard output.
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d ops failed\n", rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}
