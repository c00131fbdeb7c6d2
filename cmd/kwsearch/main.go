// Command kwsearch is an interactive demo over a generated hotel catalog:
// it builds every index of the library on the same dataset and answers
// queries typed on stdin.
//
// Usage:
//
//	kwsearch [-n objects] [-seed n] [-durable dir] [-paged file] [-paged-pread] [-paged-recovery]
//
// Commands (keywords are integer ids; 'help' lists everything):
//
//	range x1 x2 y1 y2 w1 w2      ORP-KW: rectangle + 2 keywords
//	near x y t w1 w2             L∞NN-KW: t nearest + 2 keywords
//	ball x y r w1 w2             SRP-KW: radius + 2 keywords
//	line a b c w1 w2             LC-KW: a*x + b*y <= c + 2 keywords
//	isect w1 w2                  k-SI: pure keyword intersection
//	budget nodes                 bound every query to a node-visit budget
//	stats                        dataset and index statistics
//
// With -durable dir, a crash-safe dynamic index rooted at dir is opened
// (recovering any prior state) and five more commands appear:
//
//	insert x y w1 w2             log + apply an insert; prints the handle
//	del handle                   log + apply a delete
//	drange x1 x2 y1 y2 w1 w2     query the durable index (live head)
//	checkpoint                   snapshot now and truncate the log
//	snapshot                     pin the current state for repeatable reads
//	snapshot x1 x2 y1 y2 w1 w2   query the pinned view; later inserts and
//	                             deletes do not change its answers
//
// Malformed commands — wrong argument counts, unparsable numbers, inverted
// or NaN bounds — print an error and re-prompt; the session never exits on
// bad input.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"kwsc"
	"kwsc/internal/workload"
)

var (
	flagN       = flag.Int("n", 20000, "number of objects in the generated catalog")
	flagSeed    = flag.Int64("seed", 1, "generator seed")
	flagDurable = flag.String("durable", "", "directory of a durable dynamic index (created or recovered); enables insert/del/drange/checkpoint/snapshot")
	flagPaged   = flag.String("paged", "", "file path: save the ORP-KW index there as a paged container and serve range queries from the mapping (out-of-core mode); 'pages' shows buffer-pool stats")
	flagPread   = flag.Bool("paged-pread", false, "with -paged: pread-backed access instead of mmap")
	flagPagedRe = flag.Bool("paged-recovery", false, "with -durable: serve the newest checkpoint in place (map + WAL-tail replay) instead of decoding it")
)

// session holds the indexes plus the interactive execution policy.
type session struct {
	ds   *kwsc.Dataset
	orp  *kwsc.ORPKW
	nn   *kwsc.LinfNN
	srp  *kwsc.SRPKW
	lc   *kwsc.LCKW
	ksi  *kwsc.KSI
	dur  *kwsc.DurableORPKW
	snap *kwsc.DynSnapshot // view pinned by the snapshot command
	pol  kwsc.ExecPolicy
}

func main() {
	flag.Parse()
	fmt.Printf("generating %d objects...\n", *flagN)
	ds := workload.Gen(workload.Config{
		Seed: *flagSeed, Objects: *flagN, Dim: 2, Vocab: 64, DocLen: 5,
	})
	fmt.Printf("building indexes (N=%d, W=%d)...\n", ds.N(), ds.W())
	s := &session{ds: ds}
	var err error
	s.orp, err = kwsc.NewORPKW(ds, 2)
	fatal(err)
	if *flagPaged != "" {
		fatal(kwsc.SavePagedORPKW(*flagPaged, s.orp))
		paged, h, err := kwsc.OpenPagedORPKW(*flagPaged, kwsc.PagedFileOptions{NoMmap: *flagPread})
		fatal(err)
		defer h.Close()
		s.orp = paged // range queries now read through the page cache
		mode := "mmap"
		if !h.Mapped() {
			mode = "pread"
		}
		fmt.Printf("serving ORP-KW out of core from %q (%s)\n", *flagPaged, mode)
	}
	s.nn, err = kwsc.NewLinfNN(ds, 2)
	fatal(err)
	s.srp, err = kwsc.NewSRPKW(ds, 2)
	fatal(err)
	s.lc, err = kwsc.NewLCKW(ds, kwsc.LCKWConfig{K: 2})
	fatal(err)
	s.ksi, err = kwsc.NewKSIFromDataset(ds, 2)
	fatal(err)
	if *flagDurable != "" {
		var dopts []kwsc.DurableOption
		if *flagPagedRe {
			dopts = append(dopts, kwsc.WithPagedRecovery(kwsc.PagedBaseOptions{}))
		}
		s.dur, err = kwsc.OpenDurable(*flagDurable, 2, 2, dopts...)
		fatal(err)
		defer s.dur.Close()
		fmt.Printf("durable index %q recovered: %d live objects, %d logged ops\n",
			*flagDurable, s.dur.Len(), s.dur.LastSeq())
	}
	// Keep the most expensive queries of the session for the slow command.
	kwsc.EnableSlowLog(16, 1)
	fmt.Println("ready; type 'help' for commands, coordinates are in [0,1)")

	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "quit" || fields[0] == "exit" {
			return
		}
		if err := s.dispatch(fields); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// dispatch runs one command, converting every failure — including a panic
// escaping an index — into an error for the prompt loop to print.
func (s *session) dispatch(fields []string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal failure: %v", r)
		}
	}()
	opts := kwsc.QueryOpts{Policy: s.pol}
	switch fields[0] {
	case "help":
		fmt.Println("range x1 x2 y1 y2 w1 w2 | near x y t w1 w2 | ball x y r w1 w2")
		fmt.Println("line a b c w1 w2 | isect w1 w2 | budget nodes | stats | metrics | pages | slow | quit")
		if s.dur != nil {
			fmt.Println("insert x y w1 w2 | del handle | drange x1 x2 y1 y2 w1 w2 | checkpoint")
			fmt.Println("snapshot [x1 x2 y1 y2 w1 w2]  (bare: pin current state; with args: query the pin)")
		} else {
			fmt.Println("(start with -durable <dir> for insert/del/drange/checkpoint/snapshot)")
		}
	case "stats":
		sp := s.orp.Space()
		fmt.Printf("objects=%d N=%d W=%d dim=%d\n", s.ds.Len(), s.ds.N(), s.ds.W(), s.ds.Dim())
		fmt.Printf("ORP-KW: %d nodes, %d words, height %d\n",
			s.orp.Framework().NumNodes(), sp.TotalWords(64), s.orp.Framework().Height())
		if s.pol.NodeBudget > 0 {
			fmt.Printf("session node budget: %d\n", s.pol.NodeBudget)
		}
		printSessionMetrics()
	case "metrics":
		// Full registry dump in the Prometheus text format.
		if err := kwsc.WriteMetricsPrometheus(os.Stdout); err != nil {
			return err
		}
	case "pages":
		printPagerStats()
	case "slow":
		entries := kwsc.SlowQueries()
		if len(entries) == 0 {
			fmt.Println("slow-query log is empty (it keeps the top 16 queries by work)")
		}
		for i, e := range entries {
			fmt.Printf("  %2d. [%s.%s] ops=%d nodes=%d %v outcome=%s %s\n",
				i+1, e.Family, e.Op, e.Ops, e.Nodes, e.Elapsed, e.Outcome, e.Query)
		}
	case "budget":
		args, err := floats(fields[1:], 1)
		if err != nil {
			return err
		}
		if args[0] < 0 {
			return fmt.Errorf("budget must be >= 0 (0 removes the bound), got %v", args[0])
		}
		s.pol.NodeBudget = int64(args[0])
		if s.pol.NodeBudget == 0 {
			fmt.Println("node budget removed")
		} else {
			fmt.Printf("queries now stop after %d node visits (partial results are reported)\n",
				s.pol.NodeBudget)
		}
	case "range":
		args, err := floats(fields[1:], 6)
		if err != nil {
			return err
		}
		// A struct literal, not kwsc.NewRect: the facade validation turns
		// inverted or NaN bounds into a printable error instead of a panic.
		q := &kwsc.Rect{Lo: []float64{args[0], args[2]}, Hi: []float64{args[1], args[3]}}
		ids, st, err := s.orp.CollectInto(q, kws(args[4], args[5]), opts, nil)
		report(ids, st.Ops, err)
	case "near":
		args, err := floats(fields[1:], 5)
		if err != nil {
			return err
		}
		res, ns, err := s.nn.Query(kwsc.Point{args[0], args[1]}, int(args[2]), kws(args[3], args[4]),
			kwsc.QueryOpts{Policy: s.pol})
		if err != nil && len(res) == 0 {
			return err
		}
		if err != nil {
			fmt.Printf("  (partial: %v)\n", err)
		}
		for _, r := range res {
			p := s.ds.Point(r.ID)
			fmt.Printf("  #%d at (%.3f, %.3f) dist %.4f\n", r.ID, p[0], p[1], r.Dist)
		}
		fmt.Printf("  (%d probes)\n", ns.Probes)
	case "ball":
		args, err := floats(fields[1:], 5)
		if err != nil {
			return err
		}
		sp := &kwsc.Sphere{Center: kwsc.Point{args[0], args[1]}, Radius: args[2]}
		ids, st, err := s.srp.CollectInto(sp, kws(args[3], args[4]), opts, nil)
		report(ids, st.Ops, err)
	case "line":
		args, err := floats(fields[1:], 5)
		if err != nil {
			return err
		}
		hs := []kwsc.Halfspace{{Coef: []float64{args[0], args[1]}, Bound: args[2]}}
		var ids []int32
		st, err := s.lc.Query(hs, kws(args[3], args[4]), opts,
			func(id int32) { ids = append(ids, id) })
		report(ids, st.Ops, err)
	case "isect":
		args, err := floats(fields[1:], 2)
		if err != nil {
			return err
		}
		ids, st, err := s.ksi.Report(kws(args[0], args[1]), opts)
		report(ids, st.Ops, err)
	case "insert":
		if s.dur == nil {
			return errDurableOff
		}
		args, err := floats(fields[1:], 4)
		if err != nil {
			return err
		}
		h, err := s.dur.Insert(kwsc.Object{
			Point: kwsc.Point{args[0], args[1]}, Doc: kws(args[2], args[3]),
		})
		if err != nil {
			return err
		}
		fmt.Printf("  inserted as handle %d (durable; %d live)\n", h, s.dur.Len())
	case "del":
		if s.dur == nil {
			return errDurableOff
		}
		args, err := floats(fields[1:], 1)
		if err != nil {
			return err
		}
		ok, err := s.dur.Delete(int64(args[0]))
		if err != nil {
			return err
		}
		if !ok {
			fmt.Printf("  handle %d is not live; nothing logged\n", int64(args[0]))
		} else {
			fmt.Printf("  deleted (durable; %d live)\n", s.dur.Len())
		}
	case "drange":
		if s.dur == nil {
			return errDurableOff
		}
		args, err := floats(fields[1:], 6)
		if err != nil {
			return err
		}
		q := &kwsc.Rect{Lo: []float64{args[0], args[2]}, Hi: []float64{args[1], args[3]}}
		handles, st, err := s.dur.Collect(q, kws(args[4], args[5]))
		if err != nil {
			return err
		}
		fmt.Printf("  %d results (%d work units)", len(handles), st.Ops)
		if len(handles) > 0 {
			fmt.Printf("; handles: %v", handles)
		}
		fmt.Println()
	case "checkpoint":
		if s.dur == nil {
			return errDurableOff
		}
		if err := s.dur.Checkpoint(); err != nil {
			return err
		}
		fmt.Printf("  checkpoint written at op %d; log truncated\n", s.dur.LastSeq())
	case "snapshot":
		if s.dur == nil {
			return errDurableOff
		}
		if len(fields) == 1 {
			s.snap = s.dur.Snapshot()
			fmt.Printf("  pinned snapshot at op %d (%d live); 'snapshot x1 x2 y1 y2 w1 w2' queries it\n",
				s.snap.Seq(), s.snap.Len())
			return nil
		}
		if s.snap == nil {
			return errors.New("no snapshot pinned; run 'snapshot' with no arguments first")
		}
		args, err := floats(fields[1:], 6)
		if err != nil {
			return err
		}
		q := &kwsc.Rect{Lo: []float64{args[0], args[2]}, Hi: []float64{args[1], args[3]}}
		handles, st, err := s.snap.Collect(q, kws(args[4], args[5]))
		if err != nil {
			return err
		}
		behind := s.dur.LastSeq() - s.snap.Seq()
		fmt.Printf("  %d results at pinned op %d (%d work units; %d ops behind head)",
			len(handles), s.snap.Seq(), st.Ops, behind)
		if len(handles) > 0 {
			fmt.Printf("; handles: %v", handles)
		}
		fmt.Println()
	default:
		return fmt.Errorf("unknown command %q; type 'help'", fields[0])
	}
	return nil
}

// printSessionMetrics summarizes the registry's per-family query counters
// for the stats command; the metrics command prints the full registry.
func printSessionMetrics() {
	snap := kwsc.Metrics()
	total := int64(0)
	var lines []string
	for name, v := range snap.Counters {
		if v == 0 || !strings.HasPrefix(name, "kwsc_queries_total{") {
			continue
		}
		total += v
		lines = append(lines, fmt.Sprintf("  %s = %d", name, v))
	}
	sort.Strings(lines)
	fmt.Printf("queries this session: %d ('metrics' dumps the full registry)\n", total)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// printPagerStats reports the out-of-core serving layer: open/mapped files,
// buffer-pool residency and hit rate, checksum failures, and the retirement
// protocol counters. All zeros means every index is serving from RAM.
func printPagerStats() {
	snap := kwsc.Metrics()
	hits := snap.Counters["kwsc_pager_pin_hits_total"]
	misses := snap.Counters["kwsc_pager_pin_misses_total"]
	fmt.Printf("pager: %d files open, %d bytes mapped\n",
		snap.Gauges["kwsc_pager_open_files"], snap.Gauges["kwsc_pager_mapped_bytes"])
	fmt.Printf("buffer pool: %d pages resident, %d evictions\n",
		snap.Gauges["kwsc_pager_resident_pages"], snap.Counters["kwsc_pager_evictions_total"])
	if hits+misses > 0 {
		fmt.Printf("pins: %d hits, %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	} else {
		fmt.Println("pins: none (mapped files read zero-copy, without pinning)")
	}
	fmt.Printf("integrity: %d checksum failures\n", snap.Counters["kwsc_pager_crc_failures_total"])
	fmt.Printf("retired files: %d deferred, %d deleted\n",
		snap.Counters["kwsc_pager_retire_deferred_total"], snap.Counters["kwsc_pager_retired_deleted_total"])
}

var errDurableOff = errors.New("durable index not open; start with -durable <dir>")

func kws(a, b float64) []kwsc.Keyword {
	return []kwsc.Keyword{kwsc.Keyword(a), kwsc.Keyword(b)}
}

func floats(fields []string, want int) ([]float64, error) {
	if len(fields) != want {
		return nil, fmt.Errorf("expected %d arguments, got %d", want, len(fields))
	}
	out := make([]float64, want)
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", f)
		}
		out[i] = v
	}
	return out, nil
}

// report prints results, marking policy-truncated answers as partial rather
// than treating the typed stop as a hard failure.
func report(ids []int32, ops int64, err error) {
	switch {
	case errors.Is(err, kwsc.ErrBudget) || errors.Is(err, kwsc.ErrDeadline):
		fmt.Printf("  %d partial results (%d work units; stopped: %v)\n", len(ids), ops, err)
		return
	case err != nil:
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("  %d results (%d work units)", len(ids), ops)
	if len(ids) > 0 {
		fmt.Printf("; first ids: ")
		for i, id := range ids {
			if i == 8 {
				fmt.Print("...")
				break
			}
			fmt.Printf("%d ", id)
		}
	}
	fmt.Println()
}

// fatal aborts on startup (build) failures only; the interactive loop never
// calls it.
func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kwsearch:", err)
		os.Exit(1)
	}
}
