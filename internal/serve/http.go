package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"kwsc"
	"kwsc/internal/obs"
)

// maxBodyBytes bounds request bodies; oversized requests fail validation
// instead of exhausting memory.
const maxBodyBytes = 1 << 20

var (
	queryLatency = obs.Default().Histogram(`kwscd_query_latency_us`)
	writeLatency = obs.Default().Histogram(`kwscd_write_latency_us`)

	queryRequests     = newEndpointCounters("query")
	writeRequests     = newEndpointCounters("write")
	replQueryRequests = newEndpointCounters("repl_query")
)

// httpStatuses are the statuses the counted endpoints answer with.
var httpStatuses = [...]int{
	http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusInternalServerError,
}

// endpointCounters holds one endpoint's kwscd_http_requests_total series,
// resolved once at start-up, so counting a request is one atomic add with no
// formatting and no lock.
type endpointCounters struct {
	endpoint string
	byStatus [len(httpStatuses)]*obs.Counter
}

func newEndpointCounters(endpoint string) *endpointCounters {
	e := &endpointCounters{endpoint: endpoint}
	for i, status := range httpStatuses {
		e.byStatus[i] = e.series(status)
	}
	return e
}

func (e *endpointCounters) series(status int) *obs.Counter {
	return obs.Default().Counter(fmt.Sprintf("kwscd_http_requests_total{endpoint=%q,status=%q}",
		e.endpoint, strconv.Itoa(status)))
}

func (e *endpointCounters) count(status int) {
	for i, s := range httpStatuses {
		if s == status {
			e.byStatus[i].Inc()
			return
		}
	}
	e.series(status).Inc() // a status missing from httpStatuses is still counted, through the registry
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, detail string) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, kwsc.ErrorResponse{Code: code, Error: detail})
}

// errStatus maps a typed service error onto an HTTP status and error code.
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, kwsc.ErrInvalidQuery):
		return http.StatusBadRequest, kwsc.CodeInvalid
	case errors.Is(err, ErrReadOnly):
		return http.StatusBadRequest, kwsc.CodeUnsupported
	default:
		return http.StatusInternalServerError, kwsc.CodeInternal
	}
}

// Handler returns the service's HTTP surface:
//
//	POST /v1/query   — scatter-gather query (QueryRequest -> QueryResponse)
//	POST /v1/write   — routed insert/delete (WriteRequest -> WriteResponse)
//	GET  /healthz    — liveness ("ok")
//	GET  /metrics    — Prometheus text exposition of internal/obs
//	GET  /debug/stats — JSON deployment and per-shard state
//
// plus the replication surface under /repl/v1 (DESIGN.md §16):
//
//	GET  /repl/v1/meta                    — deployment shape for followers
//	GET  /repl/v1/shard/{i}/meta          — per-shard shipping state
//	GET  /repl/v1/shard/{i}/checkpoint    — checkpoint bytes (durable primaries)
//	GET  /repl/v1/shard/{i}/wal?from=N    — WAL frame tail (durable primaries)
//	POST /repl/v1/shard/{i}/query         — single-shard scatter leg
//	GET  /repl/v1/shard/{i}/health        — replication lag and liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+kwsc.PathQuery, s.handleQuery)
	mux.HandleFunc("POST "+kwsc.PathWrite, s.handleWrite)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.Default().Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/stats", s.handleStats)

	mux.HandleFunc("GET /repl/v1/meta", s.handleReplMeta)
	for i := range s.locals {
		prefix := fmt.Sprintf("/repl/v1/shard/%03d", i)
		mux.HandleFunc("POST "+prefix+"/query", s.legQueryHandler(i))
		mux.HandleFunc("GET "+prefix+"/health", s.legHealthHandler(i))
		if s.ships != nil {
			mux.Handle(prefix+"/", http.StripPrefix(prefix, s.ships[i].Handler()))
		}
	}
	return mux
}

func (s *Server) handleReplMeta(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, serverMeta{
		Mode: s.mode(), Partition: s.part.mode.String(),
		Shards: len(s.locals), Dim: s.cfg.Dim, K: s.cfg.K,
	})
}

// legQueryHandler answers a single local shard's scatter leg: no admission,
// no merge — replica groups on a peer primary call this per shard.
func (s *Server) legQueryHandler(i int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := getWireBuf()
		defer putWireBuf(buf)
		var req kwsc.QueryRequest
		dec, err := buf.readBody(w, r)
		if err == nil {
			err = dec.queryRequest(&req)
		}
		if err != nil {
			replQueryRequests.count(http.StatusBadRequest)
			writeBadBody(w, err)
			return
		}
		if err := req.Validate(s.cfg.Dim, s.cfg.K); err != nil {
			status, code := errStatus(err)
			replQueryRequests.count(status)
			writeError(w, status, code, err.Error())
			return
		}
		opts := req.Opts(s.cfg.DefaultTimeout)
		res := s.locals[i].collect(&req, req.BoundingRect(s.cfg.Dim), req.ExactRegion(), req.Keywords,
			opts, time.Duration(req.MaxStalenessMs)*time.Millisecond, new(legBuf))
		out := outcomeOf(res.err)
		if out.failed() {
			status, code := errStatus(res.err)
			replQueryRequests.count(status)
			writeError(w, status, code, res.err.Error())
			return
		}
		ids := res.ids
		if ids == nil {
			ids = []int64{}
		}
		replQueryRequests.count(http.StatusOK)
		buf.b = appendLegReply(buf.b[:0], &legReply{
			IDs: ids, Ops: res.st.Ops, Seq: res.seq,
			Truncated: res.st.Truncated,
			Outcome:   out.String(), StalenessMs: res.stalenessMs, Stale: res.stale,
		})
		buf.send(w)
	}
}

func (s *Server) legHealthHandler(i int) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if h, ok := s.locals[i].(healther); ok {
			writeJSON(w, http.StatusOK, h.health())
			return
		}
		// A non-replicating local shard is its own primary: always caught up.
		seq := s.locals[i].seq()
		writeJSON(w, http.StatusOK, healthReply{AppliedSeq: seq, PrimarySeq: seq})
	}
}

func (s *Server) mode() string {
	switch {
	case s.follower:
		return "follower"
	case s.dynamic:
		return "dynamic"
	default:
		return "static"
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() {
		queryRequests.count(status)
		queryLatency.Observe(time.Since(start).Microseconds())
	}()

	buf := getWireBuf()
	defer putWireBuf(buf)
	var req kwsc.QueryRequest
	dec, err := buf.readBody(w, r)
	if err == nil {
		err = dec.queryRequest(&req)
	}
	if err != nil {
		status = http.StatusBadRequest
		writeBadBody(w, err)
		return
	}
	decision, release := s.adm.acquire(req.Client)
	switch decision {
	case ShedQuota:
		status = http.StatusTooManyRequests
		writeError(w, status, kwsc.CodeQuota, "client request quota exhausted")
		return
	case ShedOverload:
		status = http.StatusTooManyRequests
		writeError(w, status, kwsc.CodeOverload, "server over capacity")
		return
	}
	defer release()

	resp, err := s.Query(&req, decision == AdmitDegraded)
	if err != nil {
		var code string
		status, code = errStatus(err)
		writeError(w, status, code, err.Error())
		return
	}
	buf.b = appendQueryResponse(buf.b[:0], resp)
	buf.send(w)
}

func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	status := http.StatusOK
	defer func() {
		writeRequests.count(status)
		writeLatency.Observe(time.Since(start).Microseconds())
	}()

	buf := getWireBuf()
	defer putWireBuf(buf)
	var req kwsc.WriteRequest
	dec, err := buf.readBody(w, r)
	if err == nil {
		err = dec.writeRequest(&req)
	}
	if err != nil {
		status = http.StatusBadRequest
		writeBadBody(w, err)
		return
	}
	decision, release := s.adm.acquire(req.Client)
	if decision.Shed() {
		status = http.StatusTooManyRequests
		code := kwsc.CodeOverload
		if decision == ShedQuota {
			code = kwsc.CodeQuota
		}
		writeError(w, status, code, "write shed: "+decision.String())
		return
	}
	defer release()

	resp, err := s.Write(&req)
	if err != nil {
		var code string
		status, code = errStatus(err)
		writeError(w, status, code, err.Error())
		return
	}
	buf.b = appendWriteResponse(buf.b[:0], resp)
	buf.send(w)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	shards := make([]map[string]any, len(s.shards))
	for i, sh := range s.shards {
		shards[i] = sh.describe()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":       s.mode(),
		"partition":  s.part.mode.String(),
		"shards":     len(s.shards),
		"dim":        s.cfg.Dim,
		"k":          s.cfg.K,
		"live":       s.Live(),
		"inflight":   s.adm.Inflight(),
		"uptime_sec": int64(time.Since(s.start).Seconds()),
		"shard":      shards,
	})
}
