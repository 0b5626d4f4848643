package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
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
