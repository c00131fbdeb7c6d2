package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"kwsc/internal/pager"
	"kwsc/internal/wal"
)

// Wire constants of the shipping protocol. The surface is versioned
// independently of /v1 queries: it is an internal replication contract
// between kwsc processes, not a public API.
const (
	// HdrSeq carries the checkpoint's superseded sequence on a checkpoint
	// response.
	HdrSeq = "X-Kwsc-Seq"
	// HdrLastSeq carries the primary's acknowledged LastSeq at response
	// time on every tail response — the follower's lag reference.
	HdrLastSeq = "X-Kwsc-Last-Seq"
	// HdrShippedTo carries the sequence of the last frame included in a
	// tail response body.
	HdrShippedTo = "X-Kwsc-Shipped-To"

	// DefaultMaxBatchBytes bounds one tail response body.
	DefaultMaxBatchBytes = 1 << 20
)

// ShipperMeta is the JSON body of the shipper's meta endpoint.
type ShipperMeta struct {
	Dim           int    `json:"dim"`
	K             int    `json:"k"`
	LastSeq       uint64 `json:"last_seq"`
	CheckpointSeq uint64 `json:"checkpoint_seq"` // 0 = no checkpoint yet
}

// Shipper serves one durable directory's checkpoint and WAL tail to
// followers. LastSeq must report the owning index's acknowledged sequence —
// the shipper never ships a frame beyond it, so an operation that was logged
// but not acknowledged (a failed fsync awaiting excision) cannot reach a
// follower.
type Shipper struct {
	Dir     string
	Dim, K  int
	LastSeq func() uint64
}

// Handler returns the shipper's HTTP surface, mounted at the root of
// whatever prefix the caller chooses:
//
//	GET meta        — ShipperMeta JSON
//	GET checkpoint  — newest checkpoint bytes (204 when none), HdrSeq set
//	GET wal?from=N  — verbatim frames for seq in [N, LastSeq], HdrLastSeq
//	                  and HdrShippedTo set; 410 Gone when N was pruned
func (s *Shipper) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /meta", s.handleMeta)
	mux.HandleFunc("GET /checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /wal", s.handleWAL)
	return mux
}

func (s *Shipper) handleMeta(w http.ResponseWriter, _ *http.Request) {
	_, ckptSeq, _, err := wal.NewestCheckpoint(s.Dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ShipperMeta{
		Dim: s.Dim, K: s.K, LastSeq: s.LastSeq(), CheckpointSeq: ckptSeq,
	})
}

func (s *Shipper) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	path, seq, ok, err := wal.NewestCheckpoint(s.Dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// The pager reference keeps a concurrent checkpoint+prune from unlinking
	// the file mid-stream: Retire defers deletion to the last Unref.
	f, err := pager.Open(path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Unref()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HdrSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Length", strconv.FormatInt(f.Size(), 10))
	n, _ := io.Copy(w, io.NewSectionReader(f, 0, f.Size()))
	replBytesShipped.Add(n)
}

func (s *Shipper) handleWAL(w http.ResponseWriter, r *http.Request) {
	replShipRequests.Inc()
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		http.Error(w, "wal: ?from must be a positive sequence number", http.StatusBadRequest)
		return
	}
	last := s.LastSeq()
	w.Header().Set(HdrLastSeq, strconv.FormatUint(last, 10))
	frames, shippedTo, err := wal.CollectTail(s.Dir, from-1, last, DefaultMaxBatchBytes)
	if err != nil {
		if errors.Is(err, wal.ErrTailPruned) {
			_, ckptSeq, _, _ := wal.NewestCheckpoint(s.Dir)
			w.Header().Set(HdrSeq, strconv.FormatUint(ckptSeq, 10))
			http.Error(w, fmt.Sprintf("wal: tail from %d pruned; re-seed from checkpoint %d", from, ckptSeq),
				http.StatusGone)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set(HdrShippedTo, strconv.FormatUint(shippedTo, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frames)))
	n, _ := w.Write(frames)
	replBytesShipped.Add(int64(n))
}
