package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteJSON writes the snapshot as indented expvar-style JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// MarshalCompact returns the snapshot as single-line JSON, suitable for
// embedding in benchmark output (`# kwsc-metrics: {...}`).
func (s Snapshot) MarshalCompact() ([]byte, error) { return json.Marshal(s) }

// splitSeries splits a full series name `base{label="v",...}` into the base
// name and the label body (without braces); labels is "" when unlabelled.
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// joinLabels merges a series' own labels with an extra label (used for
// histogram `le`); either part may be empty.
func joinLabels(labels, extra string) string {
	switch {
	case labels == "":
		return extra
	case extra == "":
		return labels
	default:
		return labels + "," + extra
	}
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format. Histograms expand into cumulative `_bucket` series with `le`
// labels plus `_sum` and `_count`, so the power-of-two node-visit buckets
// can be scraped and graphed directly.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	emitTyped := func(kind string, series map[string]int64) {
		names := make([]string, 0, len(series))
		for n := range series {
			names = append(names, n)
		}
		sort.Strings(names)
		lastBase := ""
		for _, n := range names {
			base, _ := splitSeries(n)
			if base != lastBase {
				fmt.Fprintf(bw, "# TYPE %s %s\n", base, kind)
				lastBase = base
			}
			fmt.Fprintf(bw, "%s %d\n", n, series[n])
		}
	}
	emitTyped("counter", s.Counters)
	emitTyped("gauge", s.Gauges)

	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	lastBase := ""
	for _, n := range hnames {
		h := s.Histograms[n]
		base, labels := splitSeries(n)
		if base != lastBase {
			fmt.Fprintf(bw, "# TYPE %s histogram\n", base)
			lastBase = base
		}
		for _, b := range h.Buckets {
			fmt.Fprintf(bw, "%s_bucket{%s} %d\n",
				base, joinLabels(labels, `le="`+strconv.FormatInt(b.Le, 10)+`"`), b.Count)
		}
		fmt.Fprintf(bw, "%s_bucket{%s} %d\n", base, joinLabels(labels, `le="+Inf"`), h.Count)
		if labels == "" {
			fmt.Fprintf(bw, "%s_sum %d\n", base, h.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", base, h.Count)
		} else {
			fmt.Fprintf(bw, "%s_sum{%s} %d\n", base, labels, h.Sum)
			fmt.Fprintf(bw, "%s_count{%s} %d\n", base, labels, h.Count)
		}
	}
	return bw.Flush()
}
