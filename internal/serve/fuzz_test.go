package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tegrecon/internal/report"
)

// FuzzShardRequest feeds arbitrary bodies to POST /v1/shards, the
// worker side of coordinator mode, on a server with tiny bounds. The
// handler must never panic; it answers 200, 400 or 503 and nothing
// else; and a 200 body decodes to exactly one cell per requested
// index, in request order, each carrying that Index.
func FuzzShardRequest(f *testing.F) {
	const spec = `{"cycles":[{"name":"nedc"}],"schemes":["inor","baseline"],"max_duration_s":5,"array_sizes":[10]}`
	for _, body := range []string{
		`{"kind":"matrix","matrix":` + spec + `,"cells":[0,1]}`,
		`{"kind":"matrix","matrix":` + spec + `,"cells":[1]}`,
		`{"kind":"matrix","matrix":{"cycles":[{"synth":{"seed":3,"duration_s":4}}],"schemes":["dnor"],"flows":[{"paths":2,"maldistribution":0.3}],"array_sizes":[8]},"cells":[0]}`,
		`{"kind":"sweep","matrix":` + spec + `,"cells":[0]}`,
		`{"kind":"matrix","matrix":` + spec + `,"cells":[]}`,
		`{"kind":"matrix","matrix":` + spec + `,"cells":[1,1]}`,
		`{"kind":"matrix","matrix":` + spec + `,"cells":[2]}`,
		`{"kind":"matrix","matrix":` + spec + `,"cells":[-1]}`,
		`{"kind":"matrix","cells":[0]}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	h := New(Config{MaxMatrixCells: 4, MaxTicksPerJob: 400, MaxModules: 20}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		// The handler accepted the body, so the same first-value decode
		// recovers the cell list it served.
		var req ShardRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		var resp shardMatrixResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v\n%s", err, rec.Body)
		}
		if len(resp.Cells) != len(req.Cells) {
			t.Fatalf("%d cells answered for %d requested", len(resp.Cells), len(req.Cells))
		}
		for i, c := range resp.Cells {
			if c.Index != req.Cells[i] {
				t.Fatalf("answer %d carries index %d, requested %d", i, c.Index, req.Cells[i])
			}
		}
	})
}

// FuzzRunRequest feeds arbitrary bodies to POST /v1/runs on a server
// with tiny bounds. The handler must never panic and answers 200, 400
// or 503 and nothing else. A 200 is a versioned result, or for a
// stream an event sequence that ends in its summary: an admitted run
// that fails while simulating is a server fault, not a client error.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"cycle":"nedc","scheme":"inor","duration_s":5,"modules":10}`,
		`{"cycle":"wltc","scheme":"inor","duration_s":0.3,"tick_s":0.25}`,
		`{"cycle":"wltc","scheme":"inor","duration_s":0.5,"tick_s":0.25,"modules":4}`,
		`{"cycle":"wltc","scheme":"dnor","duration_s":5,"modules":10,"seed":-1}`,
		`{"cycle":"us06","scheme":"ehtr","duration_s":5,"modules":10,"seed":-4}`,
		`{"cycle":"delivery","scheme":"baseline","duration_s":5,"modules":10,"seed":0}`,
		`{"cycle":"nedc","scheme":"DNOR:horizon=8","duration_s":5,"modules":10}`,
		`{"cycle":"nedc","scheme":"INOR:horizon=8","duration_s":5,"modules":10}`,
		`{"scheme":"inor","duration_s":5}`,
		`{"cycle":"nedc","duration_s":5}`,
		`{"cycle":"nedc","scheme":"baseline","duration_s":3,"modules":10,"ticks":true}`,
		`{"cycle":"nedc","scheme":"inor","duration_s":3,"modules":10,"battery":true,"stream":true}`,
		`{"cycle":"nedc","scheme":"inor"}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	h := New(Config{MaxMatrixCells: 4, MaxTicksPerJob: 400, MaxModules: 20}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		if !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/event-stream") {
			if _, err := report.UnmarshalResult(rec.Body.Bytes()); err != nil {
				t.Fatalf("200 body for %q is not a versioned result: %v", body, err)
			}
			return
		}
		var last Event
		if err := DecodeEvents(rec.Body, func(ev Event) error { last = ev; return nil }); err != nil {
			t.Fatal(err)
		}
		if last.Name != "summary" {
			t.Fatalf("stream for %q ended with %q: %s", body, last.Name, last.Data)
		}
	})
}
