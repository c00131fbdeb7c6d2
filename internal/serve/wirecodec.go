package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"kwsc"
)

// The /v1 wire codec. The three hot handlers (query, write, the replica leg)
// decode their request and encode their answer here, on one pooled byte
// buffer per request and without reflection: the schemas are small and
// closed, and encoding/json on them cost more than the index they wrap.
// What is accepted and what is written is encoding/json's behaviour on the
// wire.go types, byte for byte — duplicate keys, nulls and string escaping
// included — with one difference: a key must equal its tag exactly, where
// encoding/json also takes case variants (DESIGN.md §14.4). The differential
// tests and fuzz targets in wirecodec_test.go hold both directions to that.

// maxPooledWireBuf is the capacity past which a buffer is dropped rather than
// pooled, so one large body or answer does not stay resident.
const maxPooledWireBuf = 64 << 10

// wireBuf is a request's byte buffer: the body is read into it and, once the
// request is decoded, the response is encoded over it. Decoded requests never
// point into it — a hedged replica leg may read the request after the handler
// has returned the buffer (replicaGroup.collect).
type wireBuf struct{ b []byte }

var wireBufs = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 1024)} }}

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

func putWireBuf(wb *wireBuf) {
	if cap(wb.b) <= maxPooledWireBuf {
		wireBufs.Put(wb)
	}
}

// readBody reads r's body into wb — at most maxBodyBytes; past that it fails
// and the connection is closed after the reply — and returns a decoder over
// it. The decoder is a value so that it can stay on the handler's stack.
func (wb *wireBuf) readBody(w http.ResponseWriter, r *http.Request) (wireDecoder, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b := wb.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			wb.b = b
			if err == io.EOF {
				err = nil
			}
			return wireDecoder{b: b}, err
		}
	}
}

// writeBadBody answers a body the codec refused.
func writeBadBody(w http.ResponseWriter, err error) {
	writeError(w, http.StatusBadRequest, kwsc.CodeInvalid, "malformed JSON body: "+err.Error())
}

// send answers 200 with the encoded body in wb: explicit Content-Length, one
// Write.
func (wb *wireBuf) send(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(wb.b)))
	w.Write(wb.b) // it fails only once the client is gone
}

// wireDecoder is a strict single-pass parser over one request body.
type wireDecoder struct {
	b []byte
	i int
}

func (d *wireDecoder) fail(what string) error {
	return fmt.Errorf("offset %d: %s", d.i, what)
}

func (d *wireDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

func (d *wireDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null consumes a null literal if one is next. What follows it is checked by
// the caller like the end of any other value.
func (d *wireDecoder) null() bool {
	if d.i+4 <= len(d.b) && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// top decodes the body's one value — an object handed key by key to field, or
// null, which like encoding/json leaves the request zero — and requires that
// only whitespace follows it.
func (d *wireDecoder) top(field func(key []byte) error) error {
	d.ws()
	if !d.null() {
		if err := d.object(field); err != nil {
			return err
		}
	}
	d.ws()
	if d.i < len(d.b) {
		return d.fail("data after the top-level value")
	}
	return nil
}

// object walks an object, calling field with each key and the cursor on the
// key's value.
func (d *wireDecoder) object(field func(key []byte) error) error {
	if !d.eat('{') {
		return d.fail("expected an object")
	}
	d.ws()
	if d.eat('}') {
		return nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		d.ws()
		if !d.eat(':') {
			return d.fail("expected ':' after an object key")
		}
		d.ws()
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		if d.eat('}') {
			return nil
		}
		if !d.eat(',') {
			return d.fail("expected ',' or '}' in an object")
		}
		d.ws()
	}
}

func (d *wireDecoder) unknown(key []byte) error {
	return d.fail(fmt.Sprintf("unknown field %q", key))
}

// str scans a string and returns its value: a view of the body for plain
// ASCII, and for a string holding an escape or a non-ASCII byte whatever
// encoding/json unquotes that one token to.
func (d *wireDecoder) str() ([]byte, error) {
	if !d.eat('"') {
		return nil, d.fail("expected a string")
	}
	start, plain := d.i, true
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			if plain {
				return d.b[start:j], nil
			}
			var s string
			if err := json.Unmarshal(d.b[start-1:d.i], &s); err != nil {
				return nil, err
			}
			return []byte(s), nil
		case c < ' ':
			d.i = j
			return nil, d.fail("control byte in a string")
		case c == '\\':
			plain = false
			j++ // whatever is escaped, it does not end the string
		case c >= 0x80:
			plain = false
		}
	}
	d.i = len(d.b)
	return nil, d.fail("unterminated string")
}

// text decodes a string value the request will own; null keeps old, as
// encoding/json leaves a scalar alone on null.
func (d *wireDecoder) text(old string) (string, error) {
	if d.null() {
		return old, nil
	}
	raw, err := d.str()
	return string(raw), err
}

// number scans an RFC 8259 number literal; integer reports one with neither
// fraction nor exponent.
func (d *wireDecoder) number() (lit []byte, integer bool, err error) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	from := i
	if i < len(b) && b[i] == '0' {
		i++ // a leading zero stands alone: "01" ends here and fails at the 1
	} else if i = skipDigits(b, i); i == from {
		return nil, false, d.fail("expected a number")
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer, from = false, i+1
		if i = skipDigits(b, from); i == from {
			return nil, false, d.fail("malformed number")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		integer, from = false, i
		if i = skipDigits(b, from); i == from {
			return nil, false, d.fail("malformed number")
		}
	}
	lit, d.i = b[d.i:i], i
	return lit, integer, nil
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *wireDecoder) float() (float64, error) {
	lit, _, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, d.fail("number out of range")
	}
	return f, nil
}

// intOr decodes an integer field of the given width; null keeps old.
func (d *wireDecoder) intOr(old int64, bits int) (int64, error) {
	if d.null() {
		return old, nil
	}
	lit, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if !integer || err != nil {
		return 0, d.fail("expected an integer in range")
	}
	return n, nil
}

func (d *wireDecoder) keyword() (kwsc.Keyword, error) {
	lit, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(string(lit), 10, 32)
	if !integer || err != nil {
		return 0, d.fail("expected a keyword (an integer in 0..4294967295)")
	}
	return kwsc.Keyword(n), nil
}

// array decodes an array of numbers (or null) over s, the field's earlier
// value — nil unless the key is repeated. The result is allocated once at its
// exact length and owned by the request. On a repeated key encoding/json
// decodes over the earlier backing array and a null element keeps what it
// finds there; so does this.
func array[T any](d *wireDecoder, s []T, elem func(*wireDecoder) (T, error)) ([]T, error) {
	if d.null() {
		return nil, nil
	}
	if !d.eat('[') {
		return nil, d.fail("expected an array")
	}
	d.ws()
	if d.eat(']') {
		return []T{}, nil
	}
	// The elements are scalars, so up to the first ']' every ',' separates
	// two of them; the loop below refuses anything that breaks that.
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		return nil, d.fail("unterminated array")
	}
	n := 1 + bytes.Count(d.b[d.i:d.i+end], []byte{','})
	if n > cap(s) {
		grown := make([]T, n)
		copy(grown, s[:cap(s)])
		s = grown
	}
	s = s[:n]
	for i := range s {
		if i > 0 {
			if !d.eat(',') {
				return nil, d.fail("expected ',' or ']' in an array")
			}
			d.ws()
		}
		if !d.null() {
			v, err := elem(d)
			if err != nil {
				return nil, err
			}
			s[i] = v
		}
		d.ws()
	}
	if !d.eat(']') {
		return nil, d.fail("expected ',' or ']' in an array")
	}
	return s, nil
}

func (d *wireDecoder) floats(s []float64) ([]float64, error) {
	return array(d, s, (*wireDecoder).float)
}

func (d *wireDecoder) keywords(s []kwsc.Keyword) ([]kwsc.Keyword, error) {
	return array(d, s, (*wireDecoder).keyword)
}

// queryRequest decodes a kwsc.QueryRequest body into req.
func (d *wireDecoder) queryRequest(req *kwsc.QueryRequest) error {
	return d.top(func(key []byte) (err error) {
		switch string(key) {
		case "client":
			req.Client, err = d.text(req.Client)
		case "rect":
			// A repeated object key decodes into the earlier struct, field by
			// field, as encoding/json does; null drops it.
			if d.null() {
				req.Rect = nil
				return nil
			}
			if req.Rect == nil {
				req.Rect = new(kwsc.RectWire)
			}
			rect := req.Rect
			return d.object(func(key []byte) (err error) {
				switch string(key) {
				case "lo":
					rect.Lo, err = d.floats(rect.Lo)
				case "hi":
					rect.Hi, err = d.floats(rect.Hi)
				default:
					err = d.unknown(key)
				}
				return err
			})
		case "sphere":
			if d.null() {
				req.Sphere = nil
				return nil
			}
			if req.Sphere == nil {
				req.Sphere = new(kwsc.SphereWire)
			}
			sphere := req.Sphere
			return d.object(func(key []byte) (err error) {
				switch string(key) {
				case "center":
					sphere.Center, err = d.floats(sphere.Center)
				case "radius":
					if !d.null() { // null keeps the value
						sphere.Radius, err = d.float()
					}
				default:
					err = d.unknown(key)
				}
				return err
			})
		case "keywords":
			req.Keywords, err = d.keywords(req.Keywords)
		case "limit":
			var n int64
			n, err = d.intOr(int64(req.Limit), strconv.IntSize)
			req.Limit = int(n)
		case "timeout_ms":
			req.TimeoutMs, err = d.intOr(req.TimeoutMs, 64)
		case "node_budget":
			req.NodeBudget, err = d.intOr(req.NodeBudget, 64)
		case "max_staleness_ms":
			req.MaxStalenessMs, err = d.intOr(req.MaxStalenessMs, 64)
		default:
			err = d.unknown(key)
		}
		return err
	})
}

// writeRequest decodes a kwsc.WriteRequest body into req.
func (d *wireDecoder) writeRequest(req *kwsc.WriteRequest) error {
	return d.top(func(key []byte) (err error) {
		switch string(key) {
		case "client":
			req.Client, err = d.text(req.Client)
		case "op":
			req.Op, err = d.text(req.Op)
		case "point":
			req.Point, err = d.floats(req.Point)
		case "doc":
			req.Doc, err = d.keywords(req.Doc)
		case "handle":
			req.Handle, err = d.intOr(req.Handle, 64)
		default:
			err = d.unknown(key)
		}
		return err
	})
}

// The encoders append what json.NewEncoder(w).Encode writes for the value:
// field order, omitempty, escaping and the trailing newline.

func appendQueryResponse(b []byte, r *kwsc.QueryResponse) []byte {
	b = appendInt64s(append(b, `{"ids":`...), r.IDs)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(r.Count), 10)
	b = appendTrue(b, `,"truncated":true`, r.Truncated)
	b = appendTrue(b, `,"degraded":true`, r.Degraded)
	b = appendTrue(b, `,"stale":true`, r.Stale)
	b = strconv.AppendInt(append(b, `,"elapsed_us":`...), r.ElapsedUs, 10)
	if len(r.Shards) > 0 {
		b = append(b, `,"shards":`...)
		for i := range r.Shards {
			sep := byte(',')
			if i == 0 {
				sep = '['
			}
			b = appendShardOutcome(append(b, sep), &r.Shards[i])
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

func appendShardOutcome(b []byte, s *kwsc.ShardOutcome) []byte {
	b = strconv.AppendInt(append(b, `{"shard":`...), int64(s.Shard), 10)
	b = strconv.AppendInt(append(b, `,"reported":`...), int64(s.Reported), 10)
	b = strconv.AppendInt(append(b, `,"ops":`...), s.Ops, 10)
	if s.Seq != 0 {
		b = strconv.AppendUint(append(b, `,"seq":`...), s.Seq, 10)
	}
	b = appendString(append(b, `,"outcome":`...), s.Outcome)
	b = appendTrue(b, `,"fell_back":true`, s.FellBack)
	if s.Replica != "" {
		b = appendString(append(b, `,"replica":`...), s.Replica)
	}
	if s.StalenessMs != 0 {
		b = strconv.AppendInt(append(b, `,"staleness_ms":`...), s.StalenessMs, 10)
	}
	b = appendTrue(b, `,"stale":true`, s.Stale)
	return append(b, '}')
}

func appendWriteResponse(b []byte, r *kwsc.WriteResponse) []byte {
	b = append(b, '{')
	if r.Handle != 0 {
		b = append(strconv.AppendInt(append(b, `"handle":`...), r.Handle, 10), ',')
	}
	if r.Deleted {
		b = append(b, `"deleted":true,`...)
	}
	if r.Seq != 0 {
		b = append(strconv.AppendUint(append(b, `"seq":`...), r.Seq, 10), ',')
	}
	b = strconv.AppendInt(append(b, `"shard":`...), int64(r.Shard), 10)
	return append(b, '}', '\n')
}

func appendLegReply(b []byte, r *legReply) []byte {
	b = appendInt64s(append(b, `{"ids":`...), r.IDs)
	b = strconv.AppendInt(append(b, `,"ops":`...), r.Ops, 10)
	b = strconv.AppendUint(append(b, `,"seq":`...), r.Seq, 10)
	b = appendTrue(b, `,"truncated":true`, r.Truncated)
	b = appendTrue(b, `,"fell_back":true`, r.FellBack)
	b = appendString(append(b, `,"outcome":`...), r.Outcome)
	b = strconv.AppendInt(append(b, `,"staleness_ms":`...), r.StalenessMs, 10)
	b = appendTrue(b, `,"stale":true`, r.Stale)
	return append(b, '}', '\n')
}

func appendTrue(b []byte, field string, set bool) []byte {
	if set {
		b = append(b, field...)
	}
	return b
}

func appendInt64s(b []byte, ids []int64) []byte {
	if ids == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, id, 10)
	}
	return append(b, ']')
}

// appendString quotes s: as is when it is printable ASCII that JSON and the
// encoder's HTML escaping leave alone, through encoding/json otherwise.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ', c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
