package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"

	"kwsc"
	"kwsc/internal/serve"
)

// executor sends a slice of ops through one rung of the layer ladder. The
// runner calls prepare before the slice (untimed), do for every op (timed),
// and finish for every op afterwards (untimed).
type executor interface {
	prepare(ops []op, firstID int) error
	do(i int) error
	finish(i int, needIDs bool) (opResult, error)
}

// opResult is what the runner needs from a completed op.
type opResult struct {
	// failed: non-200 status, a shard outcome other than ok, or degraded,
	// stale or fell_back set.
	failed   bool
	ids      []int64 // a query's answer, when asked for
	handle   int64   // an insert's handle
	reqBytes int
	rspBytes int
}

// httpExec is the outermost rung and the one end-to-end numbers come from:
// one keep-alive connection to a real net/http server, request bytes
// pre-encoded per slice, response bodies read in full inside the timed
// region and examined after it.
type httpExec struct {
	conn   net.Conn
	br     *bufio.Reader
	shards int

	ops    []op
	wire   []byte
	off    []int
	bodyAt []int // start of each request's body inside wire
	resp   []byte
	roff   []int
	status []int
}

func dialHTTP(addr string, shards int) (*httpExec, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpExec{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), shards: shards}, nil
}

func (e *httpExec) close() { e.conn.Close() }

func (e *httpExec) prepare(ops []op, firstID int) error {
	e.ops = ops
	e.wire, e.off, e.bodyAt = e.wire[:0], e.off[:0], e.bodyAt[:0]
	e.resp, e.roff, e.status = e.resp[:0], e.roff[:0], e.status[:0]
	for i := range ops {
		path, v := kwsc.PathQuery, any(&ops[i].q)
		if ops[i].kind != opQuery {
			path, v = kwsc.PathWrite, &ops[i].w
		}
		body, err := json.Marshal(v)
		if err != nil {
			return err
		}
		e.off = append(e.off, len(e.wire))
		e.wire = fmt.Appendf(e.wire,
			"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n%s: %d\r\nContent-Length: %d\r\n\r\n",
			path, benchIDHeader, firstID+i, len(body))
		e.bodyAt = append(e.bodyAt, len(e.wire))
		e.wire = append(e.wire, body...)
	}
	e.off = append(e.off, len(e.wire))
	return nil
}

func (e *httpExec) do(i int) error {
	if _, err := e.conn.Write(e.wire[e.off[i]:e.off[i+1]]); err != nil {
		return err
	}
	resp, err := http.ReadResponse(e.br, nil)
	if err != nil {
		return err
	}
	e.roff = append(e.roff, len(e.resp))
	e.status = append(e.status, resp.StatusCode)
	for {
		if len(e.resp) == cap(e.resp) {
			e.resp = append(e.resp, 0)[:len(e.resp)]
		}
		n, err := resp.Body.Read(e.resp[len(e.resp):cap(e.resp)])
		e.resp = e.resp[:len(e.resp)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			return err
		}
	}
	return resp.Body.Close()
}

var (
	flagDegraded = []byte(`"degraded":true`)
	flagStale    = []byte(`"stale":true`)
	flagFellBack = []byte(`"fell_back":true`)
	outcomeOK    = []byte(`"outcome":"ok"`)
)

func (e *httpExec) finish(i int, needIDs bool) (opResult, error) {
	end := len(e.resp)
	if i+1 < len(e.roff) {
		end = e.roff[i+1]
	}
	body := e.resp[e.roff[i]:end]
	res := opResult{reqBytes: e.off[i+1] - e.bodyAt[i], rspBytes: len(body)}
	if e.status[i] != http.StatusOK {
		res.failed = true
		return res, nil
	}
	switch e.ops[i].kind {
	case opQuery:
		// Every response is screened by its bytes (encoding/json writes no
		// spaces); only sampled ones pay for a full decode.
		res.failed = bytes.Contains(body, flagDegraded) || bytes.Contains(body, flagStale) ||
			bytes.Contains(body, flagFellBack) || bytes.Count(body, outcomeOK) != e.shards
		if needIDs {
			var qr kwsc.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				return res, fmt.Errorf("decoding query response: %w", err)
			}
			res.failed = res.failed || queryFailed(&qr, e.shards)
			res.ids = qr.IDs
		}
	default:
		var wr kwsc.WriteResponse
		if err := json.Unmarshal(body, &wr); err != nil {
			return res, fmt.Errorf("decoding write response: %w", err)
		}
		res.handle = wr.Handle
		res.failed = e.ops[i].kind == opDelete && !wr.Deleted
	}
	return res, nil
}

// queryFailed applies the failure rules to a decoded response.
func queryFailed(qr *kwsc.QueryResponse, shards int) bool {
	if qr.Degraded || qr.Stale || len(qr.Shards) != shards {
		return true
	}
	for _, s := range qr.Shards {
		if s.Outcome != "ok" || s.FellBack || s.Stale {
			return true
		}
	}
	return false
}

// serveExec is the second rung: the same requests through
// (*serve.Server).Query and Write in-process — no HTTP, no JSON.
type serveExec struct {
	srv *serve.Server
	ops []op
	q   []*kwsc.QueryResponse
	w   []*kwsc.WriteResponse
}

func (e *serveExec) prepare(ops []op, _ int) error {
	e.ops = ops
	e.q = make([]*kwsc.QueryResponse, len(ops))
	e.w = make([]*kwsc.WriteResponse, len(ops))
	return nil
}

func (e *serveExec) do(i int) (err error) {
	if e.ops[i].kind == opQuery {
		e.q[i], err = e.srv.Query(&e.ops[i].q, false)
	} else {
		e.w[i], err = e.srv.Write(&e.ops[i].w)
	}
	return err
}

func (e *serveExec) finish(i int, _ bool) (opResult, error) {
	switch e.ops[i].kind {
	case opQuery:
		return opResult{failed: queryFailed(e.q[i], e.srv.NumShards()), ids: e.q[i].IDs}, nil
	case opInsert:
		return opResult{handle: e.w[i].Handle}, nil
	default:
		return opResult{failed: !e.w[i].Deleted}, nil
	}
}

// collectExec is the innermost rung the benchmark can reach from outside:
// kwsc.Degraded.CollectInto on the unsharded corpus (static workloads), the
// floor under query latency.
type collectExec struct {
	ix     *kwsc.Degraded
	ops    []op
	buf    []int32
	ids    []int64
	off    []int
	failed []bool
}

func (e *collectExec) prepare(ops []op, _ int) error {
	e.ops = ops
	e.ids, e.off, e.failed = e.ids[:0], e.off[:0], e.failed[:0]
	return nil
}

func (e *collectExec) do(i int) error {
	q := &e.ops[i].q
	ids, st, err := e.ix.CollectInto(kwsc.NewRect(q.Rect.Lo, q.Rect.Hi), q.Keywords,
		kwsc.QueryOpts{Limit: q.Limit}, e.buf[:0])
	e.buf = ids
	e.off = append(e.off, len(e.ids))
	for _, id := range ids {
		e.ids = append(e.ids, int64(id))
	}
	e.failed = append(e.failed, st.Fallback)
	return err
}

func (e *collectExec) finish(i int, _ bool) (opResult, error) {
	end := len(e.ids)
	if i+1 < len(e.off) {
		end = e.off[i+1]
	}
	ids := e.ids[e.off[i]:end]
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return opResult{failed: e.failed[i], ids: ids}, nil
}
