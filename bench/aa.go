package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// child runs one workload in a process of its own — so that rss_mb belongs
// to that workload alone — and returns its result object.
func child(workload string, seed int64, seconds float64, trace int) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s: no result object (%v): %w", workload, runErr, err)
	}
	if runErr != nil {
		return &rep, fmt.Errorf("%s: %w", workload, runErr)
	}
	return &rep, nil
}

// runAll runs every workload untraced, then traced, and prints one table.
func runAll(seed int64, seconds float64) int {
	status := 0
	for _, spec := range specs() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			rep, err := child(spec.name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				status = 1
				if rep == nil {
					continue
				}
			}
			fmt.Printf("%s (trace %d): attempted %d, failed %d\n", spec.name, trace, rep.Attempted, rep.Failed)
			for _, d := range defs {
				fmt.Printf("  %-28s %14.3f %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
			}
		}
	}
	return status
}

// runAA is the benchmark's own steadiness check, the one the acceptance
// driver makes: two sets of n runs of the same code per workload, run i of
// either set with seed+i, the sets alternating so that drift of the host
// falls on both. Per workload × end-to-end metric it prints both medians,
// how much worse the second is than the first, each set's spread (the
// distance between its quartiles as a share of its median) and the bound. A
// difference or a spread (setup_s's excepted) beyond the bound is a breach.
func runAA(n int, seed int64, seconds float64) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := range sets {
			for _, spec := range specs() {
				rep, err := child(spec.name, seed+int64(i), seconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for name, m := range rep.Metrics {
					k := key{spec.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
			}
		}
	}
	breaches := 0
	fmt.Printf("%-13s %-14s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound")
	for _, spec := range specs() {
		for _, d := range endToEnd {
			k := key{spec.name, d.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrShare(sets[0][k]), iqrShare(sets[1][k])
			mark := ""
			if worse > d.Bound || (d.Name != "setup_s" && max(sa, sb) > d.Bound) {
				mark = "  BREACH"
				breaches++
			} else if d.Name != "setup_s" && max(sa, sb) > d.Bound/3 {
				mark = "  (spread above a third of the bound)"
			}
			fmt.Printf("%-13s %-14s %12.3f %12.3f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				spec.name, d.Name, a, b, 100*worse, 100*sa, 100*sb, 100*d.Bound, mark)
		}
	}
	if breaches > 0 {
		fmt.Printf("%d breaches\n", breaches)
		return 1
	}
	return 0
}
