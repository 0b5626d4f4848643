package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"tegrecon/internal/experiments"
	"tegrecon/internal/report"
	"tegrecon/internal/scenario"
)

// cellKeysOf normalizes and expands a spec and returns every cell's
// cache key by coordinate.
func cellKeysOf(t *testing.T, m *scenario.Matrix) map[string]string {
	t.Helper()
	n, err := m.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	counts, err := n.Counts()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := n.Expand()
	if err != nil {
		t.Fatal(err)
	}
	p := matrixParams{m: n, counts: counts}
	out := make(map[string]string, len(ex.Cells))
	for _, c := range ex.Cells {
		out[c.Coord] = cellKey(p, c)
	}
	return out
}

func tinyMatrix() *scenario.Matrix {
	return &scenario.Matrix{
		Name:         "tiny",
		MaxDurationS: 6,
		Cycles:       []scenario.CycleSpec{{Synth: &scenario.SynthSpec{Profile: "urban", Seed: 9, DurationS: 6}}},
		Schemes:      []string{"INOR"},
		Ambients:     []scenario.AmbientSpec{{AmbientC: 20}},
		Faults:       []scenario.FaultSpec{{Storm: &scenario.StormSpec{Count: 1}}},
		ArraySizes:   []int{20},
	}
}

// TestCellKeyDistinguishesEveryAxis is the canonicalization regression
// test: two cells that differ in any physically meaningful way — an
// ambient point, a storm seed offset, a synth-cycle parameter, a
// matrix-level knob the coordinate deliberately omits, or a predictive
// scheme's horizon — must never share a SHA-256 cache key.
func TestCellKeyDistinguishesEveryAxis(t *testing.T) {
	base := cellKeysOf(t, tinyMatrix())
	if len(base) != 1 {
		t.Fatalf("tiny matrix has %d cells, want 1", len(base))
	}
	variants := []struct {
		name string
		mut  func(*scenario.Matrix)
	}{
		{"ambient", func(m *scenario.Matrix) { m.Ambients[0].AmbientC = 20.5 }},
		{"coolant offset", func(m *scenario.Matrix) { m.Ambients[0].CoolantOffsetC = 1 }},
		{"storm seed offset", func(m *scenario.Matrix) { m.Faults[0].Storm.SeedOffset = 1 }},
		{"storm count", func(m *scenario.Matrix) { m.Faults[0].Storm.Count = 2 }},
		{"synth seed", func(m *scenario.Matrix) { m.Cycles[0].Synth.Seed = 10 }},
		{"synth grade", func(m *scenario.Matrix) { m.Cycles[0].Synth.GradePct = 1.5 }},
		{"synth stops", func(m *scenario.Matrix) { m.Cycles[0].Synth.StopFactor = 2 }},
		{"duration cap", func(m *scenario.Matrix) { m.MaxDurationS = 5 }},
		{"base seed", func(m *scenario.Matrix) { m.Seed = 8 }},
		{"tick", func(m *scenario.Matrix) { m.TickS = 0.25 }},
		{"noise", func(m *scenario.Matrix) { v := 0.2; m.SensorNoiseC = &v }},
		{"dnor", func(m *scenario.Matrix) { m.Schemes = []string{"DNOR"} }},
		{"dnor horizon", func(m *scenario.Matrix) { m.Schemes = []string{"DNOR"}; m.HorizonTicks = 6 }},
		{"modules", func(m *scenario.Matrix) { m.ArraySizes = []int{25} }},
		{"converter band", func(m *scenario.Matrix) { m.ConverterInputV = &[2]float64{8, 24} }},
	}
	seen := map[string]string{}
	for k := range base {
		seen[base[k]] = "base"
	}
	for _, v := range variants {
		m := tinyMatrix()
		v.mut(m)
		for _, key := range cellKeysOf(t, m) {
			if prev, dup := seen[key]; dup {
				t.Errorf("variant %q collides with %q on cell key %s", v.name, prev, key)
			}
			seen[key] = v.name
		}
	}
}

// TestCellKeyHorizonIdentity: one controller configuration has one
// cell. "DNOR:horizon=8" under horizon_ticks 4 and plain "DNOR" under
// horizon_ticks 8 build the same DNOR, so they share the coordinate,
// the sensor-noise seed and the cache key, while each keeps its own
// label; a scheme that reads no horizon keys the same under any
// horizon_ticks.
func TestCellKeyHorizonIdentity(t *testing.T) {
	cellOf := func(scheme string, horizon int) (scenario.Cell, string) {
		t.Helper()
		m := tinyMatrix()
		m.Schemes = []string{scheme}
		m.HorizonTicks = horizon
		n, err := m.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := n.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Cells) != 1 {
			t.Fatalf("%s@%d: %d cells, want 1", scheme, horizon, len(ex.Cells))
		}
		c := ex.Cells[0]
		return c, cellKey(matrixParams{m: n}, c)
	}
	variant, vKey := cellOf("DNOR:horizon=8", 4)
	plain, pKey := cellOf("DNOR", 8)
	if variant.Coord != plain.Coord || variant.Seed != plain.Seed || vKey != pKey {
		t.Errorf("one DNOR, two cells: %q seed %d key %s vs %q seed %d key %s",
			variant.Coord, variant.Seed, vKey, plain.Coord, plain.Seed, pKey)
	}
	if variant.Scheme != "DNOR:horizon=8" || plain.Scheme != "DNOR" {
		t.Errorf("labels %q and %q, want the entries as written", variant.Scheme, plain.Scheme)
	}
	if !strings.Contains(plain.Coord, "sch=DNOR:horizon=8;") {
		t.Errorf("DNOR coordinate %q does not carry its effective horizon", plain.Coord)
	}
	inor4, k4 := cellOf("INOR", 4)
	inor8, k8 := cellOf("INOR", 8)
	if inor4.Coord != inor8.Coord || k4 != k8 {
		t.Errorf("INOR keyed by the unread horizon: %s vs %s", k4, k8)
	}
}

// TestMatrixKeysStableWithoutBand pins the envelope key and the first
// cell key of the committed example spec, which sets no converter
// band: adding a matrix-level parameter must not invalidate any cache
// or disk-store entry of a spec that leaves it unset, and spelling out
// the default band keeps them too. The pins change only with
// keyVersion (these are its tegserve/v4 values).
func TestMatrixKeysStableWithoutBand(t *testing.T) {
	spec, err := os.ReadFile("../../examples/matrix/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, band := range []*[2]float64{nil, {4.5, 36}} {
		var m scenario.Matrix
		if err := json.Unmarshal(spec, &m); err != nil {
			t.Fatal(err)
		}
		m.ConverterInputV = band
		n, err := m.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		key, err := matrixKey("matrix", n)
		if err != nil {
			t.Fatal(err)
		}
		if want := "b893467c8db877d4d7d7c86dc816bad158b133c5169e2c3d0c5421a48d3a2c28"; key != want {
			t.Errorf("band %v: matrix key %s, want %s", band, key, want)
		}
		ex, err := n.Expand()
		if err != nil {
			t.Fatal(err)
		}
		first := ex.Cells[0]
		if !strings.HasPrefix(first.Coord, "cy=name=nedc;sch=Baseline;") || !strings.HasSuffix(first.Coord, ";mod=100") {
			t.Fatalf("first cell %q is not the NEDC baseline cell at N=100", first.Coord)
		}
		if got, want := cellKey(matrixParams{m: n}, first), "397f04c5dc0c88f8caa6bbe95235bcc0f18fc808c00a21f0b9024f1befda51a4"; got != want {
			t.Errorf("band %v: first cell key %s, want %s", band, got, want)
		}
	}
}

// TestMatrixKeySurfaceFormInvariant: spellings that normalize to the
// same spec must share the envelope key and every cell key.
func TestMatrixKeySurfaceFormInvariant(t *testing.T) {
	a := tinyMatrix()
	b := tinyMatrix()
	b.Schemes = []string{"inor"} // case only
	b.Seed = 0                   // defaults to 7
	b.TickS = 0
	b.HorizonTicks = 0
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ka, err := matrixKey("matrix", na)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := matrixKey("matrix", nb)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("surface spellings produced different matrix keys %s / %s", ka, kb)
	}
	if !maps_equal(cellKeysOf(t, a), cellKeysOf(t, b)) {
		t.Fatal("surface spellings produced different cell keys")
	}
}

func maps_equal(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestMatrixEndpointCommittedSpec is the PR's serve-side acceptance
// test, run against the example spec committed at examples/matrix —
// the same bytes a user would POST. The first submission computes, the
// repeat must be a byte-identical envelope-cache hit, and the status
// endpoints must show every cell content-addressed into the cache.
func TestMatrixEndpointCommittedSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full committed 288-cell spec")
	}
	spec, err := os.ReadFile("../../examples/matrix/spec.json")
	if err != nil {
		t.Fatal(err)
	}
	// The cell cache must out-size the grid for every cell to stay
	// resident (the default 256 entries would evict the first cells of
	// a 288-cell matrix; the envelope cache would still serve repeats).
	_, ts := newTestServer(t, Config{CacheEntries: 1024})

	resp1, body1 := postJSON(t, ts.URL+"/v1/matrix", string(spec))
	if resp1.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first submission X-Cache = %q, want miss", got)
	}
	if got := resp1.Header.Get("X-Matrix-Cells-Cached"); got != "0" {
		t.Fatalf("first submission served %s cells from cache, want 0", got)
	}
	key := resp1.Header.Get("X-Cache-Key")
	if key == "" {
		t.Fatal("no X-Cache-Key")
	}

	var env struct {
		Version int             `json:"version"`
		Name    string          `json:"name"`
		Counts  scenario.Counts `json:"counts"`
		Cells   []struct {
			Coord      string  `json:"coord"`
			EnergyOutJ float64 `json:"energy_out_j"`
		} `json:"cells"`
		Marginals []struct {
			Axis  string `json:"axis"`
			Value string `json:"value"`
		} `json:"marginals"`
	}
	if err := json.Unmarshal(body1, &env); err != nil {
		t.Fatal(err)
	}
	if env.Name != "example-grid" || len(env.Cells) != 288 || env.Counts.Cells != 288 {
		t.Fatalf("envelope name %q, %d cells (counts %d), want example-grid/288", env.Name, len(env.Cells), env.Counts.Cells)
	}
	for i, c := range env.Cells {
		if c.EnergyOutJ <= 0 {
			t.Fatalf("cell %d (%s) produced no energy", i, c.Coord)
		}
	}
	if len(env.Marginals) == 0 {
		t.Fatal("no marginals in envelope")
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/matrix", string(spec))
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat submission X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("repeat submission is not byte-identical")
	}
	if k2 := resp2.Header.Get("X-Cache-Key"); k2 != key {
		t.Fatalf("repeat key %s != %s", k2, key)
	}

	// Twin-style status: the registry lists the matrix with every cell
	// content-addressed into the cache.
	resp, err := http.Get(ts.URL + "/v1/matrix")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Matrices []struct {
			Key         string `json:"key"`
			Name        string `json:"name"`
			CachedCells int    `json:"cached_cells"`
		} `json:"matrices"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Matrices) != 1 || list.Matrices[0].Key != key {
		t.Fatalf("matrix listing: %+v", list)
	}
	if list.Matrices[0].CachedCells != 288 {
		t.Fatalf("listing shows %d cached cells, want 288", list.Matrices[0].CachedCells)
	}

	resp, err = http.Get(ts.URL + "/v1/matrix/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Cells []struct {
			Coord  string `json:"coord"`
			Cached bool   `json:"cached"`
		} `json:"cells"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Cells) != 288 {
		t.Fatalf("status lists %d cells, want 288", len(status.Cells))
	}
	for _, c := range status.Cells {
		if !c.Cached {
			t.Fatalf("cell %s not cached after a full run", c.Coord)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/matrix/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown matrix key: status %d, want 404", resp.StatusCode)
	}
}

// TestMatrixPartialCellReuse: a new matrix that overlaps an old one
// pays only for its new cells — the overlap is served from the
// per-cell cache and reported in X-Matrix-Cells-Cached.
func TestMatrixPartialCellReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	small := `{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],
		"schemes":["INOR"],"ambients":[{"ambient_c":20}],"array_sizes":[20],"max_duration_s":6}`
	big := `{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],
		"schemes":["INOR","DNOR"],"ambients":[{"ambient_c":20},{"ambient_c":30}],"array_sizes":[20],"max_duration_s":6}`

	resp, body := postJSON(t, ts.URL+"/v1/matrix", small)
	if resp.StatusCode != 200 {
		t.Fatalf("small matrix: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Matrix-Cells-Cached"); got != "0" {
		t.Fatalf("fresh small matrix reused %s cells", got)
	}

	resp, body = postJSON(t, ts.URL+"/v1/matrix", big)
	if resp.StatusCode != 200 {
		t.Fatalf("big matrix: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("big matrix X-Cache = %q, want miss (different spec)", got)
	}
	// The big grid is 1×2×2×1 = 4 cells; exactly the small grid's one
	// cell overlaps.
	if got := resp.Header.Get("X-Matrix-Cells-Cached"); got != "1" {
		t.Fatalf("big matrix reused %s cells from cache, want 1", got)
	}
	var env struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Cells) != 4 {
		t.Fatalf("big matrix has %d cells, want 4", len(env.Cells))
	}
	// The recalled cell takes its index in the big matrix, so the
	// envelope is the one a fresh server computes.
	_, fresh := newTestServer(t, Config{})
	if _, want := postJSON(t, fresh.URL+"/v1/matrix", big); !bytes.Equal(body, want) {
		t.Fatalf("overlapping matrix differs from a fresh server's\n%s\n%s", body, want)
	}
}

// TestMatrixRecalledCellRelabelled: the cell key leaves out the cycle
// label and fault name, so a matrix that relabels a stored cell recalls
// it under its own labels, and answers what a fresh server does.
func TestMatrixRecalledCellRelabelled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := func(cycle, fault string) string {
		return `{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6},"label":"` + cycle + `"}],
			"schemes":["INOR"],"faults":[{"name":"` + fault + `"}],"array_sizes":[20],"max_duration_s":6}`
	}
	if resp, body := postJSON(t, ts.URL+"/v1/matrix", spec("A", "calm")); resp.StatusCode != 200 {
		t.Fatalf("first matrix: %d: %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/v1/matrix", spec("B", "quiet"))
	if resp.StatusCode != 200 {
		t.Fatalf("relabelled matrix: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Matrix-Cells-Cached"); got != "1" {
		t.Fatalf("relabelled matrix reused %s cells, want 1", got)
	}
	var env struct {
		Cells []experiments.MatrixCell `json:"cells"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if c := env.Cells[0]; c.Cycle != "B" || c.Fault != "quiet" {
		t.Fatalf("recalled cell labelled cycle %q, fault %q; want B, quiet", c.Cycle, c.Fault)
	}
	_, fresh := newTestServer(t, Config{})
	if _, want := postJSON(t, fresh.URL+"/v1/matrix", spec("B", "quiet")); !bytes.Equal(body, want) {
		t.Fatalf("relabelled matrix differs from a fresh server's\n%s\n%s", body, want)
	}
}

// TestMatrixStream drives the SSE path: start, one cell event per
// cell, then a summary byte-identical to what the non-streaming path
// now serves from the envelope cache the stream back-filled.
func TestMatrixStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := `{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],
		"schemes":["INOR","DNOR"],"ambients":[{"ambient_c":20}],"array_sizes":[20],
		"max_duration_s":6,"stream":true}`
	resp, err := http.Post(ts.URL+"/v1/matrix", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream Content-Type %q", ct)
	}
	events := map[string]int{}
	var summary []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	current := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			current = strings.TrimPrefix(line, "event: ")
			events[current]++
		case strings.HasPrefix(line, "data: ") && current == "summary":
			summary = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events["start"] != 1 || events["summary"] != 1 || events["error"] != 0 {
		t.Fatalf("event counts %v", events)
	}
	if events["cell"] != 2 {
		t.Fatalf("saw %d cell events, want 2", events["cell"])
	}

	// The stream back-fills the envelope cache: a plain resubmission is
	// a hit and its payload equals the stream's summary event.
	plain := strings.Replace(spec, `,"stream":true`, "", 1)
	resp2, body := postJSON(t, ts.URL+"/v1/matrix", plain)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("post-stream submission X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(bytes.TrimSpace(summary), bytes.TrimSpace(body)) {
		t.Fatal("stream summary differs from the cached envelope")
	}
}

// TestMatrixAdmission: the server refuses matrices over its bounds
// with a 400 naming the limit, before any simulation starts.
func TestMatrixAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxMatrixCells: 3, MaxModules: 50, MaxTicksPerJob: 1000})
	cases := []struct {
		name, body, wantFrag string
	}{
		{"invalid spec", `{"cycles":[{"name":"autobahn"}]}`, "invalid matrix spec"},
		{"too many cells", `{"cycles":[{"name":"nedc"}],"schemes":["INOR","DNOR"],"array_sizes":[20,30],"max_duration_s":6}`, "over the server's 3 limit"},
		{"modules", `{"cycles":[{"name":"nedc"}],"schemes":["INOR"],"array_sizes":[60],"max_duration_s":6}`, "module limit"},
		{"ticks", `{"cycles":[{"name":"nedc"}],"schemes":["INOR"],"array_sizes":[20]}`, "control periods"},
		{"unknown field", `{"cycles":[{"name":"nedc"}],"bogus":1}`, "bogus"},
		{"cap under the trace sample period", `{"cycles":[{"name":"wltc"}],"schemes":["inor"],"array_sizes":[20],"max_duration_s":0.3,"tick_s":0.25}`, "sample period"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/matrix", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.wantFrag) {
				t.Fatalf("error %s does not mention %q", body, tc.wantFrag)
			}
		})
	}
}

// TestMatrixMetrics: matrix traffic shows up in /v1/stats and the
// Prometheus surface.
func TestMatrixMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := `{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],
		"schemes":["INOR"],"ambients":[{"ambient_c":20}],"array_sizes":[20],"max_duration_s":6}`
	if resp, body := postJSON(t, ts.URL+"/v1/matrix", spec); resp.StatusCode != 200 {
		t.Fatalf("%d: %s", resp.StatusCode, body)
	}
	st := s.Stats()
	if st.Matrices != 1 {
		t.Fatalf("stats count %d matrices, want 1", st.Matrices)
	}
	if st.MatrixCells != 1 {
		t.Fatalf("stats count %d matrix cells, want 1", st.MatrixCells)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b := new(bytes.Buffer)
	_, err = b.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("tegserve_matrices_total %d", 1),
		fmt.Sprintf("tegserve_matrix_cells_total %d", 1),
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("metrics output missing %q", want)
		}
	}
}

// TestSweepRendersMatrixCells pins the /v1/sweeps contract: the table
// is report.FromSweep over the experiments.MatrixSweep cells of the
// request's scenario.CycleSweep grid — the rendering `tegsim -study
// scenarios` prints. The request lists cycles and schemes out of
// coordinate order, so row order comes from the request, not from the
// matrix's stable cell order.
func TestSweepRendersMatrixCells(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"cycles":["nedc","delivery"],"schemes":["dnor","baseline","inor"],"max_duration_s":6,"modules":20,"seed":11}`
	resp, b := postJSON(t, ts.URL+"/v1/sweeps", body)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, b)
	}
	var sweep sweepEnvelope
	if err := json.Unmarshal(b, &sweep); err != nil {
		t.Fatal(err)
	}

	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	spec := sweepMatrix(req)
	m, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.MatrixSweep(t.Context(), m, experiments.MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(report.FromSweep(m, res.Cells))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(sweep.Table)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep table is not the rendering of the matrix cells\ngot  %s\nwant %s", got, want)
	}

	var order []string
	for _, row := range sweep.Table.Rows {
		order = append(order, row[0]+"/"+row[1])
	}
	wantOrder := []string{"nedc/DNOR", "nedc/Baseline", "nedc/INOR", "delivery/DNOR", "delivery/Baseline", "delivery/INOR"}
	if !slices.Equal(order, wantOrder) {
		t.Fatalf("rows %v, want request order %v", order, wantOrder)
	}
}
