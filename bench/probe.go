package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The calibration probe is a fixed amount of benchmark-owned work whose
// duration measures how fast the host runs right now. It is a miniature of
// the serving path's shape, not of its code: probeTrips keep-alive round
// trips over loopback HTTP to a handler that decodes a JSON body, fans out
// to four goroutines that each update a private 2 MiB table from four
// independent integer streams, merges their results and encodes a JSON
// reply. It calls nothing of the system under test.
//
// The shape matters. On the shared two-core hosts the benchmark runs on, the
// neighbours' load moves a workload by 30–50% from run to run, and different
// kinds of code feel it differently: a serial integer chain in a 64 KiB
// table (the first probe tried) slowed by about half as much as the served
// workloads did, and left a 5–12% run-to-run spread after correction. A
// probe that crosses the same kernel, scheduler and memory paths as a
// request leaves 1–4% (README.md has the measurements).
const (
	// probeRefUs is K: the probe's duration on the reference host. It is a
	// constant of the benchmark, never a value taken from the run itself —
	// a per-run reference would put the between-run shift back.
	probeRefUs = 6000.0

	probeTrips    = 120
	probeLegs     = 4
	probeLegIters = 400
	probeLegSlots = 2 << 20 / 8
)

// prober owns the probe's listener, server and connection.
type prober struct {
	ln     net.Listener
	hs     *http.Server
	served chan error
	conn   net.Conn
	br     *bufio.Reader
	wire   []byte
	tables [probeLegs][]uint64
}

type probeRequest struct {
	Lo       []float64 `json:"lo"`
	Hi       []float64 `json:"hi"`
	Keywords []int     `json:"keywords"`
}

type probeReply struct {
	IDs   []uint64 `json:"ids"`
	Count int      `json:"count"`
}

func newProber() (*prober, error) {
	p := &prober{served: make(chan error, 1)}
	for i := range p.tables {
		p.tables[i] = make([]uint64, probeLegSlots)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.ln = ln
	p.hs = &http.Server{Handler: http.HandlerFunc(p.handle)}
	go func() { p.served <- p.hs.Serve(ln) }()
	if p.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		p.close()
		return nil, err
	}
	p.br = bufio.NewReader(p.conn)
	body, err := json.Marshal(probeRequest{Lo: []float64{0.125, 0.25}, Hi: []float64{0.375, 0.5}, Keywords: []int{17, 42}})
	if err != nil {
		p.close()
		return nil, err
	}
	p.wire = fmt.Appendf(nil, "POST /probe HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	return p, nil
}

// close stops the probe's server and waits for it.
func (p *prober) close() {
	if p.conn != nil {
		p.conn.Close()
	}
	p.hs.Close()
	<-p.served
}

func (p *prober) handle(w http.ResponseWriter, r *http.Request) {
	var req probeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var wg sync.WaitGroup
	var parts [probeLegs][2]uint64
	for leg := range parts {
		wg.Add(1)
		go func(leg int) {
			defer wg.Done()
			parts[leg] = probeLeg(p.tables[leg], uint64(leg+len(req.Keywords)))
		}(leg)
	}
	wg.Wait()
	reply := probeReply{IDs: make([]uint64, 0, 2*probeLegs)}
	for _, part := range parts {
		reply.IDs = append(reply.IDs, part[0]>>40, part[1]>>40)
	}
	reply.Count = len(reply.IDs)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&reply)
}

// probeLeg is one leg's work: four independent integer streams (so the core
// has parallel work to issue, as the index's intersection loops give it)
// updating a table larger than the L2 cache.
func probeLeg(tab []uint64, seed uint64) [2]uint64 {
	a, b, c, d := seed|1, seed+2, seed+3, seed+4
	n := uint64(len(tab))
	for i := 0; i < probeLegIters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*2862933555777941757 + 3037000493
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d = d*0x9E3779B97F4A7C15 + 1
		tab[(a>>20)%n] += b
		tab[(c>>20)%n] ^= d
	}
	return [2]uint64{a ^ b, c ^ d}
}

// run makes the probe's round trips once and returns their duration in µs.
func (p *prober) run() (float64, error) {
	start := time.Now()
	for i := 0; i < probeTrips; i++ {
		if _, err := p.conn.Write(p.wire); err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
		resp, err := http.ReadResponse(p.br, nil)
		if err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("probe: status %d: %v", resp.StatusCode, err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3, nil
}

// median returns the median of n probes (set-up is corrected by 5 on each
// side, because one probe is a thin sample for seconds of work).
func (p *prober) median(n int) (float64, error) {
	ps := make([]float64, n)
	for i := range ps {
		var err error
		if ps[i], err = p.run(); err != nil {
			return 0, err
		}
	}
	sort.Float64s(ps)
	return percentile(ps, 0.5), nil
}

// speedFactor converts a duration measured between two probes to "time at
// reference host speed": a slice whose probes took twice probeRefUs ran on a
// host half as fast, so its durations halve.
func speedFactor(before, after float64) float64 {
	return probeRefUs / ((before + after) / 2)
}
