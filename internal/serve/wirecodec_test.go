package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kwsc"
	"kwsc/internal/workload"
)

// strictJSON is the oracle the codec is held to: encoding/json with unknown
// fields refused, then nothing but whitespace after the value. (The handlers
// used to ask dec.More() instead, which a trailing '}' or ']' got past.)
func strictJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest, _ := io.ReadAll(dec.Buffered())
	if len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
		return fmt.Errorf("data after the top-level value")
	}
	return nil
}

// keySchema is the exact keys of an object, each with the keys of its value
// when that is an object.
type keySchema map[string]keySchema

var (
	queryKeys = keySchema{"client": nil, "keywords": nil, "limit": nil, "timeout_ms": nil,
		"node_budget": nil, "max_staleness_ms": nil,
		"rect": {"lo": nil, "hi": nil}, "sphere": {"center": nil, "radius": nil}}
	writeKeys = keySchema{"client": nil, "op": nil, "point": nil, "doc": nil, "handle": nil}
)

// inexactKey reports whether a body encoding/json accepted names a field by
// anything but its exact tag — a case variant, which encoding/json folds onto
// the field and the codec refuses.
func inexactKey(body []byte, keys keySchema) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	inexact := false
	var walk func(keys keySchema)
	walk = func(keys keySchema) {
		tok, err := dec.Token()
		if err != nil {
			return
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, _ := dec.Token()
				sub, exact := keys[key.(string)]
				if !exact {
					inexact = true
					for name, s := range keys {
						if strings.EqualFold(name, key.(string)) {
							sub = s
						}
					}
				}
				walk(sub)
			}
			dec.Token()
		case json.Delim('['):
			for dec.More() {
				walk(nil)
			}
			dec.Token()
		}
	}
	walk(keys)
	return inexact
}

// decodeVerdict is how the codec and the oracle compared on one body.
type decodeVerdict int

const (
	bothAccept decodeVerdict = iota
	bothRefuse
	refusedInexactKey // the one documented difference
)

// checkDecode holds one schema's decoder to the oracle on body: what it
// accepts the oracle accepts, to the same value; what the oracle refuses it
// refuses; and what it alone refuses has an inexact key.
func checkDecode[T any](t testing.TB, body []byte, keys keySchema, codec func(*wireDecoder, *T) error) decodeVerdict {
	t.Helper()
	var got, want T
	gotErr := codec(&wireDecoder{b: body}, &got)
	wantErr := strictJSON(body, &want)
	switch {
	case gotErr == nil && wantErr != nil:
		t.Fatalf("%T: codec accepts %q, encoding/json refuses it: %v", got, body, wantErr)
	case gotErr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: %q decodes to\n %+v\nencoding/json has\n %+v", got, body, got, want)
		}
		return bothAccept
	case wantErr == nil:
		if !inexactKey(body, keys) {
			t.Fatalf("%T: codec refuses %q (%v), encoding/json accepts it and every key is exact", got, body, gotErr)
		}
		return refusedInexactKey
	}
	return bothRefuse
}

func checkDecodeBoth(t testing.TB, body []byte) (q, w decodeVerdict) {
	t.Helper()
	return checkDecode(t, body, queryKeys, (*wireDecoder).queryRequest),
		checkDecode(t, body, writeKeys, (*wireDecoder).writeRequest)
}

// contractRow is one line of the /v1 wire contract: a body, the schema it is
// written against, and how far it gets.
type contractRow struct {
	name   string
	schema byte // 'q' query (also the replica leg), 'w' write
	body   string
	gets   int
}

const (
	refused = iota // by the codec: 400 invalid
	invalid        // decoded, then refused by Validate: 400 invalid
	served         // 200
)

const (
	okQuery  = `{"keywords":[1,2]}`
	okInsert = `{"op":"insert","point":[0.5,0.5],"doc":[1,2]}`
)

var contractRows = []contractRow{
	{"plain", 'q', okQuery, served},
	{"whitespace", 'q', " \t\r\n{ \"keywords\" : [ 1 ,\n2 ] } \n", served},
	{"all-fields", 'q', `{"client":"c","rect":{"lo":[0,0],"hi":[1,1]},"keywords":[1,2],"limit":5,"timeout_ms":100,"node_budget":1000,"max_staleness_ms":0}`, served},
	{"sphere", 'q', `{"sphere":{"center":[0.5,0.5],"radius":0.25},"keywords":[1,2]}`, served},
	{"float-forms", 'q', `{"keywords":[1,2],"rect":{"lo":[-0,0.0e0],"hi":[1E0,1.5e-1]}}`, served},
	{"limit-null", 'q', `{"keywords":[1,2],"limit":null}`, served},
	{"rect-null", 'q', `{"keywords":[1,2],"rect":null}`, served},
	{"keywords-null", 'q', `{"keywords":null}`, invalid},
	{"duplicate-last-wins", 'q', `{"keywords":[1,2,3],"keywords":[1,2]}`, served},
	{"duplicate-last-loses", 'q', `{"keywords":[1,2],"keywords":[1,2,3]}`, invalid},
	{"duplicate-rect-merges", 'q', `{"keywords":[1,2],"rect":{"lo":[0,0]},"rect":{"hi":[1,1]}}`, served},
	{"client-escape", 'q', `{"client":"é\"\\","keywords":[1,2]}`, served},
	{"client-utf8", 'q', `{"client":"é∑","keywords":[1,2]}`, served},
	{"client-bad-utf8", 'q', "{\"client\":\"\xff\",\"keywords\":[1,2]}", served},
	{"key-escape", 'q', `{"keywords":[1,2]}`, served},
	{"unknown-key", 'q', `{"keywords":[1,2],"nope":1}`, refused},
	{"unknown-key-in-rect", 'q', `{"keywords":[1,2],"rect":{"lo":[0,0],"hi":[1,1],"mid":[0,0]}}`, refused},
	{"unknown-key-in-sphere", 'q', `{"keywords":[1,2],"sphere":{"center":[0,0],"radius":1,"r":1}}`, refused},
	{"key-case-variant", 'q', `{"Keywords":[1,2]}`, refused},
	{"nested-key-case-variant", 'q', `{"keywords":[1,2],"rect":{"LO":[0,0],"hi":[1,1]}}`, refused},
	{"truncated", 'q', `{"keywords":[1,2]`, refused},
	{"empty", 'q', ``, refused},
	{"top-null", 'q', `null`, invalid},
	{"top-array", 'q', `[]`, refused},
	{"top-string", 'q', `"keywords"`, refused},
	{"string-for-number", 'q', `{"keywords":["1",2]}`, refused},
	{"string-for-limit", 'q', `{"keywords":[1,2],"limit":"5"}`, refused},
	{"fraction-for-keyword", 'q', `{"keywords":[1.0,2]}`, refused},
	{"exponent-for-limit", 'q', `{"keywords":[1,2],"limit":1e2}`, refused},
	{"negative-keyword", 'q', `{"keywords":[-1,2]}`, refused},
	{"keyword-past-uint32", 'q', `{"keywords":[4294967296,2]}`, refused},
	{"keyword-max", 'q', `{"keywords":[4294967295,2]}`, served},
	{"limit-past-int64", 'q', `{"keywords":[1,2],"limit":9223372036854775808}`, refused},
	{"leading-zero", 'q', `{"keywords":[01,2]}`, refused},
	{"float-out-of-range", 'q', `{"keywords":[1,2],"rect":{"lo":[0,0],"hi":[1e999,1]}}`, refused},
	{"NaN", 'q', `{"keywords":[1,2],"rect":{"lo":[NaN,0],"hi":[1,1]}}`, refused},
	{"bool-for-number", 'q', `{"keywords":[1,2],"limit":true}`, refused},
	{"object-for-array", 'q', `{"keywords":{}}`, refused},
	{"array-for-object", 'q', `{"keywords":[1,2],"rect":[]}`, refused},
	{"control-byte-in-string", 'q', "{\"client\":\"a\nb\",\"keywords\":[1,2]}", refused},
	{"bad-escape", 'q', `{"client":"\x","keywords":[1,2]}`, refused},
	{"trailing-comma", 'q', `{"keywords":[1,2],}`, refused},
	{"trailing-brace", 'q', okQuery + `}`, refused},
	{"trailing-bracket", 'q', okQuery + `]`, refused},
	{"trailing-garbage", 'q', okQuery + ` x`, refused},
	{"second-value", 'q', okQuery + okQuery, refused},

	{"plain", 'w', okInsert, served},
	{"delete-missing-handle", 'w', `{"op":"delete","handle":1048576}`, served},
	{"handle-null", 'w', `{"op":"insert","point":[0.5,0.5],"doc":[1,2],"handle":null}`, served},
	{"duplicate-last-wins", 'w', `{"op":"bogus","op":"insert","point":[0.5,0.5],"doc":[1,2]}`, served},
	{"client-escape", 'w', `{"client":"é\"<>&","op":"insert","point":[0.5,0.5],"doc":[1,2]}`, served},
	{"op-escape", 'w', `{"op":"insert","point":[0.5,0.5],"doc":[1,2]}`, served},
	{"unknown-op", 'w', `{"op":"upsert"}`, invalid},
	{"top-null", 'w', `null`, invalid},
	{"unknown-key", 'w', `{"op":"insert","point":[0.5,0.5],"doc":[1,2],"ttl":5}`, refused},
	{"key-case-variant", 'w', `{"Op":"insert","point":[0.5,0.5],"doc":[1,2]}`, refused},
	{"fraction-for-handle", 'w', `{"op":"delete","handle":1.0}`, refused},
	{"negative-doc-keyword", 'w', `{"op":"insert","point":[0.5,0.5],"doc":[-1]}`, refused},
	{"doc-keyword-past-uint32", 'w', `{"op":"insert","point":[0.5,0.5],"doc":[4294967296]}`, refused},
	{"float-out-of-range", 'w', `{"op":"insert","point":[1e999,0.5],"doc":[1,2]}`, refused},
	{"number-for-string", 'w', `{"op":1}`, refused},
	{"truncated", 'w', `{"op":"insert","point":[0.5,0.5],"doc":[1,2]`, refused},
	{"empty", 'w', ``, refused},
	{"top-array", 'w', `[]`, refused},
	{"trailing-brace", 'w', okInsert + `}`, refused},
	{"trailing-bracket", 'w', okInsert + `]`, refused},
}

// oversized pads a valid body with whitespace to one byte past the cap.
func oversized(body string) []byte {
	return append([]byte(body), bytes.Repeat([]byte{' '}, maxBodyBytes+1-len(body))...)
}

// countedKey names one kwscd_http_requests_total series.
type countedKey struct {
	endpoint string
	status   int
}

// countedSeries reads every series of the three decoding endpoints.
func countedSeries() map[countedKey]int64 {
	out := make(map[countedKey]int64)
	for _, e := range []*endpointCounters{queryRequests, writeRequests, replQueryRequests} {
		for i, status := range httpStatuses {
			out[countedKey{e.endpoint, status}] = e.byStatus[i].Load()
		}
	}
	return out
}

// TestWireContract pins the /v1 wire contract (DESIGN.md §14.4) on the three
// endpoints that decode a body, on a static and on a dynamic server: the
// status, the error code, and that the request was counted on exactly its
// (endpoint, status) series. The error detail text is not contract.
func TestWireContract(t *testing.T) {
	objs := genObjects(600, 47)
	static, err := NewStatic(objs, Config{Shards: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer static.Close()
	dynamic, err := NewDynamic("", objs, Config{Shards: 2, Dim: 2, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	defer dynamic.Close()

	for mode, s := range map[string]*Server{"static": static, "dynamic": dynamic} {
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		// post sends body to one endpoint and checks the answer and the counters.
		post := func(t *testing.T, endpoint, path string, body io.Reader, status int, code string, closes bool) {
			t.Helper()
			before := countedSeries()
			resp, err := http.Post(ts.URL+path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if status == http.StatusOK {
				if resp.StatusCode != status {
					t.Fatalf("status %d, want 200: %s", resp.StatusCode, out)
				}
				if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(out)) {
					t.Errorf("Content-Length %q on a body of %d bytes", cl, len(out))
				}
			} else {
				assertError(t, resp, out, status, code)
			}
			if resp.Close != closes {
				t.Errorf("connection close = %v, want %v", resp.Close, closes)
			}
			for series, after := range countedSeries() {
				want := before[series]
				if series == (countedKey{endpoint, status}) {
					want++
				}
				if after != want {
					t.Errorf("requests counted on %+v moved by %d, want %d", series, after-before[series], want-before[series])
				}
			}
		}
		// expect maps how far a body gets onto the answer of one endpoint.
		expect := func(schema byte, gets int) (int, string) {
			switch {
			case gets == refused:
				return http.StatusBadRequest, kwsc.CodeInvalid
			case schema == 'w' && !s.dynamic:
				return http.StatusBadRequest, kwsc.CodeUnsupported
			case gets == invalid:
				return http.StatusBadRequest, kwsc.CodeInvalid
			}
			return http.StatusOK, ""
		}
		endpoints := map[byte][][2]string{
			'q': {{"query", kwsc.PathQuery}, {"repl_query", "/repl/v1/shard/000/query"}},
			'w': {{"write", kwsc.PathWrite}},
		}
		for _, row := range contractRows {
			for _, ep := range endpoints[row.schema] {
				t.Run(fmt.Sprintf("%s/%s/%s", mode, ep[0], row.name), func(t *testing.T) {
					status, code := expect(row.schema, row.gets)
					post(t, ep[0], ep[1], strings.NewReader(row.body), status, code, false)
				})
			}
		}
		// One byte past the cap, with a Content-Length and chunked: refused,
		// and the server closes the connection rather than read the rest.
		for schema, body := range map[byte]string{'q': okQuery, 'w': okInsert} {
			for _, ep := range endpoints[schema] {
				t.Run(fmt.Sprintf("%s/%s/oversized", mode, ep[0]), func(t *testing.T) {
					big := oversized(body)
					post(t, ep[0], ep[1], bytes.NewReader(big), http.StatusBadRequest, kwsc.CodeInvalid, true)
					post(t, ep[0], ep[1], struct{ io.Reader }{bytes.NewReader(big)}, http.StatusBadRequest, kwsc.CodeInvalid, true)
					status, code := expect(schema, served)
					post(t, ep[0], ep[1], bytes.NewReader(big[:maxBodyBytes]), status, code, false)
				})
			}
		}
	}
}

// quirkBodies are where encoding/json's handling of a repeated key shows: it
// decodes over the earlier value, and null leaves what it finds.
var quirkBodies = []string{
	`{"keywords":[7,8],"keywords":[null,null]}`,
	`{"keywords":[1,2,3],"keywords":[4],"keywords":[5,null,null,null]}`,
	`{"keywords":[1,2,3],"keywords":[],"keywords":[null,null]}`,
	`{"keywords":[1,2,3],"keywords":null,"keywords":[null]}`,
	`{"limit":5,"limit":null,"client":"a","client":null}`,
	`{"rect":{"lo":[1,2]},"rect":{"lo":[null],"hi":[3]}}`,
	`{"rect":{"lo":[1,2]},"rect":null,"rect":{}}`,
	`{"sphere":{"radius":2},"sphere":{"radius":null,"center":[null]}}`,
	`{"op":"insert","op":null,"point":[1,2,3,4,5],"point":[null],"doc":[9],"doc":[null,null]}`,
}

func TestWireDecodeQuirks(t *testing.T) {
	for _, body := range quirkBodies {
		q, w := checkDecodeBoth(t, []byte(body))
		if q != bothAccept && w != bothAccept {
			t.Errorf("%s: accepted under neither schema (query %d, write %d)", body, q, w)
		}
	}
}

// benchBodies returns n request bodies in the shape of each bench/ stream
// (bench/workloads.go), marshalled the way every client of this repo does.
func benchBodies(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	objs := genObjects(n, seed)
	wire := func(side float64) *kwsc.RectWire {
		r := workload.RandRect(rng, 2, side)
		return &kwsc.RectWire{Lo: r.Lo, Hi: r.Hi}
	}
	var out [][]byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	for i := 0; i < n; i++ {
		// tiny-scatter, heavy-core, paged-cold
		add(&kwsc.QueryRequest{Rect: wire(0.05), Keywords: workload.RandKeywords(rng, 1000, 2), Limit: 100})
		add(&kwsc.QueryRequest{Rect: wire(0.2 + 0.3*rng.Float64()), Keywords: []kwsc.Keyword{0, 1, 2}, Limit: 100})
		add(&kwsc.QueryRequest{Rect: wire(0.2), Keywords: workload.RandKeywords(rng, 1000, 2), Limit: 100})
		// rw-mixed: 8 queries : 1 insert : 1 delete
		switch i % 10 {
		case 4:
			add(&kwsc.WriteRequest{Op: kwsc.OpInsert, Point: objs[i].Point, Doc: objs[i].Doc})
		case 9:
			add(&kwsc.WriteRequest{Op: kwsc.OpDelete, Handle: rng.Int63n(1 << 40)})
		default:
			add(&kwsc.QueryRequest{Rect: wire(0.1), Keywords: workload.RandKeywords(rng, 1000, 2), Limit: 100})
		}
	}
	return out
}

// spliceTokens are what mutate puts where a token was: every kind of value
// and punctuation, keys exact, case-varied and unknown, and the number forms
// the integer and float fields disagree on.
var spliceTokens = []string{
	`null`, `true`, `{`, `}`, `[`, `]`, `,`, `:`, `{}`, `[]`, `[null]`, `""`, ` `, "\n\t",
	`0`, `-0`, `1`, `-1`, `01`, `1.0`, `1e2`, `1E+2`, `0.5e-3`, `1e999`, `-1e-999`, `1.`, `.5`, `-`, `NaN`,
	`4294967295`, `4294967296`, `9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
	`"client"`, `"rect"`, `"sphere"`, `"keywords"`, `"limit"`, `"timeout_ms"`, `"node_budget"`, `"max_staleness_ms"`,
	`"lo"`, `"hi"`, `"center"`, `"radius"`, `"op"`, `"point"`, `"doc"`, `"handle"`,
	`"Keywords"`, `"LIMIT"`, `"Lo"`, `"oP"`, `"keywords"`, "\"Keywords\"", `"nope"`,
	`"insert"`, `"delete"`, `"é"`, `"é\"\\\/\b\f\n\r\t"`, `"😀"`, `"\ud83d"`, "\"\xff\xfe\"", "\"a\x01\"", `"\x"`, `"<>&"`,
	`"rect":{"lo":[1]}`, `"sphere":{"radius":1}`, `"keywords":[3]`, `"limit":7`, `"doc":[null]`,
}

// tokenize cuts a compact JSON body into its tokens (strings whole).
func tokenize(body []byte) [][]byte {
	var toks [][]byte
	for i := 0; i < len(body); {
		j := i + 1
		switch c := body[i]; {
		case c == '"':
			for j < len(body) && body[j] != '"' {
				if body[j] == '\\' {
					j++
				}
				j++
			}
			j = min(j+1, len(body))
		case strings.IndexByte(`{}[],:`, c) < 0:
			for j < len(body) && strings.IndexByte(`{}[],:"`, body[j]) < 0 {
				j++
			}
		}
		toks = append(toks, body[i:j])
		i = j
	}
	return toks
}

// mutate returns body with a few token- and byte-level edits: a token
// replaced, dropped, doubled or moved, whitespace, truncation, trailing
// bytes, a flipped byte.
func mutate(rng *rand.Rand, body []byte) []byte {
	toks := tokenize(body)
	for edits := 1 + rng.Intn(3); edits > 0 && len(toks) > 0; edits-- {
		i := rng.Intn(len(toks))
		switch rng.Intn(9) {
		case 0, 1, 2:
			toks[i] = []byte(spliceTokens[rng.Intn(len(spliceTokens))])
		case 3:
			toks = append(toks[:i], toks[i+1:]...)
		case 4: // repeat a run of tokens after a comma: duplicate keys, longer arrays
			j := min(len(toks), i+1+rng.Intn(6))
			run := append([][]byte{[]byte(",")}, toks[i:j]...)
			toks = append(toks[:j], append(run, toks[j:]...)...)
		case 5:
			toks[i] = append([]byte(" \t\r\n"[:1+rng.Intn(4)]), toks[i]...)
		case 6:
			toks = append(toks, []byte([]string{"}", "]", " ", "x", "{}", "null", ",", "\x00"}[rng.Intn(8)]))
		case 7:
			k := rng.Intn(len(toks))
			toks[i], toks[k] = toks[k], toks[i]
		case 8: // a key in another case: the one thing encoding/json takes and the codec does not
			if tok := toks[i]; len(tok) > 2 && tok[0] == '"' {
				k := 1 + rng.Intn(len(tok)-2)
				toks[i] = append(append(append([]byte(nil), tok[:k]...), bytes.ToUpper(tok[k:k+1])...), tok[k+1:]...)
			}
		}
	}
	out := bytes.Join(toks, nil)
	switch rng.Intn(10) {
	case 0:
		out = out[:rng.Intn(len(out)+1)]
	case 1:
		if len(out) > 0 {
			out[rng.Intn(len(out))] = byte(rng.Intn(256))
		}
	}
	return out
}

// TestWireDecodeDifferential is the fuzz property on 20 000 deterministic
// bodies, so tier-1 sees it without -fuzz: the bench-shaped bodies as they
// are, then mutated.
func TestWireDecodeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	bodies := benchBodies(22, 1000)
	var writes [][]byte // a twentieth of the streams; mutated more often than that
	for _, body := range bodies {
		if bytes.HasPrefix(body, []byte(`{"op"`)) {
			writes = append(writes, body)
		}
	}
	var counts [2][3]int
	for i := 0; i < 20_000; i++ {
		body := bodies[i%len(bodies)]
		if i >= len(bodies) {
			if i%4 == 0 {
				body = writes[rng.Intn(len(writes))]
			}
			body = mutate(rng, body)
		}
		q, w := checkDecodeBoth(t, body)
		counts[0][q]++
		counts[1][w]++
	}
	t.Logf("query schema: %d accepted by both, %d refused by both, %d refused for an inexact key; write schema: %d, %d, %d",
		counts[0][bothAccept], counts[0][bothRefuse], counts[0][refusedInexactKey],
		counts[1][bothAccept], counts[1][bothRefuse], counts[1][refusedInexactKey])
	for schema, c := range counts {
		for verdict, n := range c {
			if n < 20 {
				t.Errorf("schema %d: only %d bodies ended in verdict %d; the generator no longer covers it", schema, n, verdict)
			}
		}
	}
}

func FuzzWireDecode(f *testing.F) {
	for _, row := range contractRows {
		f.Add([]byte(row.body))
	}
	for _, body := range quirkBodies {
		f.Add([]byte(body))
	}
	// A few bodies of each bench/ stream's shape: the engine gathers coverage
	// over every seed before it mutates one, and 4 000 look-alikes (which
	// TestWireDecodeDifferential runs) would use up a short session.
	for _, body := range benchBodies(1, 10) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeBoth(t, body)
	})
}

// encodeStrings are the string values the encoder must escape as the
// standard encoder does: HTML characters, quotes, control bytes, invalid
// UTF-8, the separators encoding/json escapes for JSONP.
var encodeStrings = []string{
	"", "ok", "deadline", "writer", "replica-0", "a b", `<script>&"quoted"\`, "tab\there", "\b\f\n\r",
	"\x00\x1f\x7f", "é∑😀", "\xff\xfe", "a\xc3", "  ", "�",
}

// encodeCase builds one value of each encoded type from rng, taking string
// and integer field values from the given pools.
func encodeCase(rng *rand.Rand, strs []string, ints []int64) (*kwsc.QueryResponse, *kwsc.WriteResponse, *legReply) {
	str := func() string { return strs[rng.Intn(len(strs))] }
	num := func() int64 {
		if rng.Intn(3) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Int63n(1000) - 100
	}
	flag := func() bool { return rng.Intn(3) == 0 }
	ids := func() []int64 {
		switch n := rng.Intn(6); n {
		case 0:
			return nil
		case 1:
			return []int64{}
		default:
			out := make([]int64, n*n)
			for i := range out {
				out[i] = num()
			}
			return out
		}
	}
	q := &kwsc.QueryResponse{IDs: ids(), Count: int(num()), Truncated: flag(), Degraded: flag(), Stale: flag(), ElapsedUs: num()}
	if n := rng.Intn(5); n > 0 {
		q.Shards = make([]kwsc.ShardOutcome, n-1) // empty and non-nil included
		for i := range q.Shards {
			q.Shards[i] = kwsc.ShardOutcome{Shard: int(num()), Reported: int(num()), Ops: num(), Seq: uint64(num()) * uint64(rng.Intn(2)),
				Outcome: str(), FellBack: flag(), Replica: str(), StalenessMs: num() * int64(rng.Intn(2)), Stale: flag()}
		}
	}
	w := &kwsc.WriteResponse{Handle: num() * int64(rng.Intn(2)), Deleted: flag(), Seq: uint64(num()) * uint64(rng.Intn(2)), Shard: int(num())}
	l := &legReply{IDs: ids(), Ops: num(), Seq: uint64(num()), Truncated: flag(),
		Outcome: str(), StalenessMs: num(), Stale: flag()}
	return q, w, l
}

// checkEncode holds the three encoders to json.NewEncoder, byte for byte.
func checkEncode(t testing.TB, q *kwsc.QueryResponse, w *kwsc.WriteResponse, l *legReply) {
	t.Helper()
	for _, c := range []struct {
		v   any
		got []byte
	}{
		{q, appendQueryResponse(nil, q)},
		{w, appendWriteResponse(nil, w)},
		{l, appendLegReply(nil, l)},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.got, want.Bytes()) {
			t.Fatalf("%T encodes to\n %q\njson.Encoder writes\n %q", c.v, c.got, want.Bytes())
		}
	}
}

var encodeInts = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MaxUint32}

// TestWireEncodeDifferential: 20 000 deterministic responses encode to the
// bytes json.NewEncoder writes.
func TestWireEncodeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20_000; i++ {
		q, w, l := encodeCase(rng, encodeStrings, encodeInts)
		checkEncode(t, q, w, l)
	}
}

func FuzzWireEncode(f *testing.F) {
	for i, s := range encodeStrings {
		f.Add(int64(i), s, encodeStrings[len(encodeStrings)-1-i], encodeInts[i%len(encodeInts)], int64(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, s1, s2 string, n1, n2 int64) {
		q, w, l := encodeCase(rand.New(rand.NewSource(seed)), []string{s1, s2, "ok"}, []int64{n1, n2})
		checkEncode(t, q, w, l)
	})
}

// TestDecodedRequestOwnsMemory is the hedged-leg property: a decoded request
// holds no view of the pooled buffer, so a replica leg still reading it after
// the handler returned the buffer (replicaGroup.collect) sees it unchanged
// while the next request is read, decoded and answered on the same bytes.
// `make race` runs it under the detector, which would report any aliasing.
func TestDecodedRequestOwnsMemory(t *testing.T) {
	first := []byte(`{"client":"first","rect":{"lo":[0.125,0.25],"hi":[0.5,0.75]},"keywords":[11,22],"limit":3}`)
	wb := getWireBuf()
	wb.b = append(wb.b[:0], first...)
	var req kwsc.QueryRequest
	if err := (&wireDecoder{b: wb.b}).queryRequest(&req); err != nil {
		t.Fatal(err)
	}
	want := kwsc.QueryRequest{Client: "first", Rect: &kwsc.RectWire{Lo: []float64{0.125, 0.25}, Hi: []float64{0.5, 0.75}},
		Keywords: []kwsc.Keyword{11, 22}, Limit: 3}
	putWireBuf(wb)

	var leg sync.WaitGroup
	leg.Add(1)
	go func() { // the leg that outlived the handler
		defer leg.Done()
		for i := 0; i < 1000; i++ {
			if !reflect.DeepEqual(req, want) {
				t.Errorf("request changed under a late reader: %+v", req)
				return
			}
		}
	}()
	for i := 0; i < 1000; i++ { // the next requests on the same buffer
		wb.b = append(wb.b[:0], `{"client":"other","rect":{"lo":[9,9],"hi":[9,9]},"keywords":[99,99],"limit":9}`...)
		var next kwsc.QueryRequest
		if err := (&wireDecoder{b: wb.b}).queryRequest(&next); err != nil {
			t.Fatal(err)
		}
		wb.b = appendQueryResponse(wb.b[:0], &kwsc.QueryResponse{IDs: []int64{9, 9, 9}, Count: 3})
	}
	leg.Wait()
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("request changed after its buffer was reused: %+v", req)
	}
}

// stubWriter is the cheapest http.ResponseWriter: what a handler costs on it
// is the handler's own.
type stubWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *stubWriter) Header() http.Header { return w.h }
func (w *stubWriter) WriteHeader(s int)   { w.status = s }
func (w *stubWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// replayRequest is one POST that can be served again and again, allocating
// nothing of its own.
type replayRequest struct {
	r *http.Request
	bytes.Reader
	raw []byte
}

func (p *replayRequest) Close() error { return nil }

func newReplayRequest(path string, raw []byte) *replayRequest {
	p := &replayRequest{raw: raw}
	p.r = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)) // sets the Content-Length
	p.r.Body = p
	return p
}

// serve runs the request through h on w and returns the status answered.
func (p *replayRequest) serve(h http.Handler, w *stubWriter) int {
	p.Reset(p.raw)
	w.status = http.StatusOK
	clear(w.h)
	h.ServeHTTP(w, p.r)
	return w.status
}

// BenchmarkWireCodec is the same-session number for a change to
// wirecodec.go: decoding and encoding alone on tiny-scatter's shapes, and a
// whole request through Handler().ServeHTTP on a stub writer (4 static
// shards, so the scatter is tiny-scatter's too).
func BenchmarkWireCodec(b *testing.B) {
	const vocab = 1000
	objs := objectsOf(workload.Gen(workload.Config{Seed: 7, Objects: 50_000, Dim: 2, Vocab: vocab, DocLen: 6}))
	s, err := NewStatic(objs, Config{Shards: 4, K: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 1024)
	resps := make([]*kwsc.QueryResponse, len(bodies))
	reqs := make([]*replayRequest, len(bodies))
	for i := range bodies {
		r := workload.RandRect(rng, 2, 0.05)
		req := &kwsc.QueryRequest{Rect: &kwsc.RectWire{Lo: r.Lo, Hi: r.Hi}, Keywords: workload.RandKeywords(rng, vocab, 2), Limit: 100}
		bodies[i], _ = json.Marshal(req)
		if resps[i], err = s.Query(req, false); err != nil {
			b.Fatal(err)
		}
		reqs[i] = newReplayRequest(kwsc.PathQuery, bodies[i])
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req kwsc.QueryRequest
			if err := (&wireDecoder{b: bodies[i%len(bodies)]}).queryRequest(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendQueryResponse(buf[:0], resps[i%len(resps)])
		}
	})
	b.Run("serve", func(b *testing.B) {
		b.ReportAllocs()
		h, w := s.Handler(), &stubWriter{h: make(http.Header)}
		for i := 0; i < b.N; i++ {
			if status := reqs[i%len(reqs)].serve(h, w); status != http.StatusOK {
				b.Fatalf("status %d", status)
			}
		}
	})
}
