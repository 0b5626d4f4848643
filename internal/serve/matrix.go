// POST /v1/matrix: declarative scenario matrices as a service. A
// request carries a scenario.Matrix spec; the server expands it under
// its admission bounds, runs the cells on the batch engine inside the
// bounded job queue, and content-addresses every *cell* into the
// result cache — so a resubmitted matrix is answered without
// simulating anything, and a new matrix that merely overlaps an old
// one (one more ambient point, say) only pays for its new cells.
// GET /v1/matrix lists recently expanded matrices twin-style, and
// GET /v1/matrix/{key} reports per-cell cache status.

package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"tegrecon/internal/experiments"
	"tegrecon/internal/report"
	"tegrecon/internal/scenario"
)

// MatrixRequest is the POST /v1/matrix body: a scenario.Matrix spec
// plus the transport flag. Every cell is cacheable.
type MatrixRequest struct {
	scenario.Matrix
	// Stream switches the response to Server-Sent Events: `start`,
	// one `cell` per completed cell, then a terminal `summary`.
	Stream bool `json:"stream,omitempty"`
}

// matrixParams is a MatrixRequest after normalization: the spec in
// canonical form plus its pre-admission size estimate.
type matrixParams struct {
	m      *scenario.Matrix
	counts scenario.Counts
}

func (s *Server) normalizeMatrix(req MatrixRequest) (matrixParams, *httpError) {
	var p matrixParams
	n, err := req.Matrix.Normalize()
	if err != nil {
		return p, errf(http.StatusBadRequest, "%v", err)
	}
	counts, err := n.Counts()
	if err != nil {
		return p, errf(http.StatusBadRequest, "%v", err)
	}
	if counts.Cells > s.cfg.MaxMatrixCells {
		return p, errf(http.StatusBadRequest, "matrix expands to %d cells, over the server's %d limit — trim an axis", counts.Cells, s.cfg.MaxMatrixCells)
	}
	if counts.MaxModules > s.cfg.MaxModules {
		return p, errf(http.StatusBadRequest, "array size %d over the server's %d-module limit", counts.MaxModules, s.cfg.MaxModules)
	}
	if counts.Ticks > int64(s.cfg.MaxTicksPerJob) {
		return p, errf(http.StatusBadRequest, "matrix spans %d control periods, over the server's %d limit — cap max_duration_s or trim an axis", counts.Ticks, s.cfg.MaxTicksPerJob)
	}
	p.m, p.counts = n, counts
	return p, nil
}

// matrixKey hashes the canonical (normalized) spec under an envelope
// domain: "matrix" for /v1/matrix, "sweep" for the /v1/sweeps table of
// the same cells. Normalize is deterministic and json.Marshal of the
// canonical struct is too, so every spelling of the same matrix shares
// one envelope key; Normalize keeps axis order, so cycle and scheme
// order stay part of it.
func matrixKey(domain string, m *scenario.Matrix) (string, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	k := newKey(domain)
	k.str("spec", string(b))
	return k.sum(), nil
}

// --- matrix registry (twin-style listing of recent matrices) ---

// matrixCellStatus pairs a cell with its cache key for status probes.
type matrixCellStatus struct {
	coord string
	key   string
}

type matrixEntry struct {
	key      string
	name     string
	counts   scenario.Counts
	created  time.Time
	lastSeen time.Time
	cells    []matrixCellStatus
}

// matrixRegistry remembers the most recently expanded matrices so
// their cell status stays inspectable — bounded like the session
// registry, evicting the least recently resubmitted entry.
type matrixRegistry struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*matrixEntry
}

func newMatrixRegistry(cap int) *matrixRegistry {
	return &matrixRegistry{cap: cap, entries: map[string]*matrixEntry{}}
}

func (r *matrixRegistry) put(e *matrixEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if old, ok := r.entries[e.key]; ok {
		old.lastSeen = now
		return
	}
	e.created, e.lastSeen = now, now
	if len(r.entries) >= r.cap {
		var oldest *matrixEntry
		for _, cand := range r.entries {
			if oldest == nil || cand.lastSeen.Before(oldest.lastSeen) {
				oldest = cand
			}
		}
		if oldest != nil {
			delete(r.entries, oldest.key)
		}
	}
	r.entries[e.key] = e
}

func (r *matrixRegistry) get(key string) (*matrixEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if ok {
		e.lastSeen = time.Now()
	}
	return e, ok
}

func (r *matrixRegistry) list() []*matrixEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*matrixEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].created.Before(out[j].created) })
	return out
}

// --- execution ---

// expandMatrix expands the spec and registers the matrix (with its
// per-cell cache keys) for status listing.
func (s *Server) expandMatrix(p matrixParams, key string) (*scenario.Expansion, []string, error) {
	ex, err := p.m.Expand()
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, len(ex.Cells))
	statuses := make([]matrixCellStatus, len(ex.Cells))
	for i, c := range ex.Cells {
		keys[i] = cellKey(p, c)
		statuses[i] = matrixCellStatus{coord: c.Coord, key: keys[i]}
	}
	s.matrices.put(&matrixEntry{key: key, name: p.m.Name, counts: p.counts, cells: statuses})
	return ex, keys, nil
}

// computeMatrix fills cells from the per-cell cache and simulates only
// the missing ones, caching each fresh cell on the way out (its disk
// write queued behind the response, see cache.putBehind). onCell,
// when non-nil, observes every cell in stable order (cached ones
// first, then fresh ones as they complete): each missing cell then runs
// as its own one-cell shard, and the callback's error (client gone)
// aborts the remaining cells. distribute lets a coordinator fan the
// missing cells out to its worker peers in contiguous index shards
// (non-streaming client-facing requests only — shard requests and SSE
// streams always compute locally); every cell is bit-identical
// whoever computes it. Returns the full cell list and how many came
// from cache.
func (s *Server) computeMatrix(ctx context.Context, ex *scenario.Expansion, keys []string, onCell func(experiments.MatrixCell) error, distribute bool) ([]experiments.MatrixCell, int, error) {
	cells := make([]experiments.MatrixCell, len(ex.Cells))
	var missing []int
	cached := 0
	for i := range ex.Cells {
		if b, ok := s.cache.peek(keys[i]); ok {
			var c experiments.MatrixCell
			if err := json.Unmarshal(b, &c); err == nil {
				// The key leaves out the cell's index, cycle label and
				// fault name, so a cell stored by another matrix carries
				// that matrix's; take them from this expansion.
				c.Cell = ex.Cells[i]
				cells[i] = c
				cached++
				if onCell != nil {
					if err := onCell(c); err != nil {
						return nil, cached, err
					}
				}
				continue
			}
			// A corrupt cached cell is recomputed, not served.
		}
		missing = append(missing, i)
	}
	if len(missing) == 0 {
		return cells, cached, nil
	}
	batches := [][]int{missing}
	if onCell != nil {
		batches = make([][]int, len(missing))
		for k, i := range missing {
			batches[k] = []int{i}
		}
	}
	for _, idxs := range batches {
		var got []experiments.MatrixCell
		var err error
		if distribute && len(s.cfg.WorkerPeers) > 0 {
			got, err = s.distributeMatrixCells(ctx, ex, idxs)
		} else {
			got, err = s.localMatrixShard(ctx, ex, idxs)
		}
		if err != nil {
			return nil, cached, err
		}
		for k, c := range got {
			i := idxs[k]
			cells[i] = c
			if b, err := json.Marshal(c); err == nil {
				s.cache.putBehind(keys[i], b)
			}
			s.met.matrixCells.Add(1)
			if onCell != nil {
				if err := onCell(c); err != nil {
					return nil, cached, err
				}
			}
		}
	}
	return cells, cached, nil
}

// marshalMatrixEnvelope encodes the response payload. It is built
// deterministically from the per-cell results alone (no request-time
// state like cache hit counts — those travel as headers), so a repeat
// submission is byte-identical whether it came from the envelope cache,
// the per-cell cache, or a fresh computation.
func marshalMatrixEnvelope(p matrixParams, cells []experiments.MatrixCell) ([]byte, error) {
	return json.Marshal(report.NewMatrixEnvelope(&experiments.MatrixResult{Name: p.m.Name, Cells: cells}, p.counts))
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if herr := decodeJSON(w, r, &req); herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	p, herr := s.normalizeMatrix(req)
	if herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	if s.Draining() {
		s.writeJSONError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.met.matrices.Add(1)
	key, err := matrixKey("matrix", p.m)
	if err != nil {
		s.writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("X-Cache-Key", key)
	if req.Stream {
		s.streamMatrix(w, r, p, key)
		return
	}
	s.serveMatrix(w, r, p, key, func(cells []experiments.MatrixCell) ([]byte, error) {
		return marshalMatrixEnvelope(p, cells)
	})
}

// serveMatrix answers a non-streaming matrix-backed request under its
// envelope key: from the envelope cache, or by expanding the matrix
// and computing its cells as one job through the per-cell cache, with
// the missing cells fanned out to the worker peers when the server is
// a coordinator. render encodes the cells as the payload. A response
// not served from the envelope cache reports in X-Matrix-Cells-Cached
// how many cells the per-cell cache supplied.
func (s *Server) serveMatrix(w http.ResponseWriter, r *http.Request, p matrixParams, key string, render func([]experiments.MatrixCell) ([]byte, error)) {
	var cachedCells int
	payload, state, err := s.cachedPayload(r, key, func(ctx context.Context) ([]byte, error) {
		ex, keys, err := s.expandMatrix(p, key)
		if err != nil {
			return nil, err
		}
		var payload []byte
		err = s.job(ctx, func(ctx context.Context) error {
			s.met.computations.Add(1)
			cells, cached, err := s.computeMatrix(ctx, ex, keys, nil, true)
			cachedCells = cached
			if err != nil {
				return err
			}
			payload, err = render(cells)
			return err
		})
		return payload, err
	})
	if err != nil {
		s.writeJobError(w, r, err)
		return
	}
	if state != "hit" {
		w.Header().Set("X-Matrix-Cells-Cached", strconv.Itoa(cachedCells))
	}
	writePayload(w, state, payload)
}

// streamMatrix answers with Server-Sent Events: `start` (key and
// counts), one `cell` per cell in stable order — cached cells first,
// fresh ones as their simulations complete — then a terminal `summary`
// holding the same envelope the non-streaming path serves (which also
// back-fills the envelope cache).
func (s *Server) streamMatrix(w http.ResponseWriter, r *http.Request, p matrixParams, key string) {
	s.stream(w, r, key, func(ctx context.Context, send func(string, []byte) error) ([]byte, error) {
		ex, keys, err := s.expandMatrix(p, key)
		if err != nil {
			return nil, err
		}
		start, _ := json.Marshal(map[string]any{"key": key, "name": p.m.Name, "counts": p.counts})
		if err := send("start", start); err != nil {
			return nil, err
		}
		cells, _, err := s.computeMatrix(ctx, ex, keys, func(c experiments.MatrixCell) error {
			b, err := json.Marshal(c)
			if err != nil {
				return err
			}
			return send("cell", b)
		}, false)
		if err != nil {
			return nil, err
		}
		return marshalMatrixEnvelope(p, cells)
	})
}

// --- status listing ---

// matrixSummary is one registry entry's listing form.
type matrixSummary struct {
	Key         string          `json:"key"`
	Name        string          `json:"name,omitempty"`
	Counts      scenario.Counts `json:"counts"`
	CachedCells int             `json:"cached_cells"`
	CreatedS    float64         `json:"created_s_ago"`
	LastSeenS   float64         `json:"last_seen_s_ago"`
}

func (s *Server) matrixSummaryOf(e *matrixEntry, now time.Time) matrixSummary {
	cached := 0
	for _, c := range e.cells {
		// has, not peek: a disk-tier probe per cell must not read the
		// payloads just to report residency.
		if s.cache.has(c.key) {
			cached++
		}
	}
	return matrixSummary{
		Key:         e.key,
		Name:        e.name,
		Counts:      e.counts,
		CachedCells: cached,
		CreatedS:    now.Sub(e.created).Seconds(),
		LastSeenS:   now.Sub(e.lastSeen).Seconds(),
	}
}

func (s *Server) handleMatrixList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	entries := s.matrices.list()
	out := struct {
		Matrices []matrixSummary `json:"matrices"`
	}{Matrices: make([]matrixSummary, 0, len(entries))}
	for _, e := range entries {
		out.Matrices = append(out.Matrices, s.matrixSummaryOf(e, now))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleMatrixGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.matrices.get(r.PathValue("key"))
	if !ok {
		s.writeJSONError(w, http.StatusNotFound, "no such matrix (matrices are remembered per process; resubmit the spec)")
		return
	}
	type cellStatus struct {
		Index  int    `json:"index"`
		Coord  string `json:"coord"`
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	now := time.Now()
	out := struct {
		Matrix matrixSummary `json:"matrix"`
		Cells  []cellStatus  `json:"cells"`
	}{Matrix: s.matrixSummaryOf(e, now), Cells: make([]cellStatus, 0, len(e.cells))}
	for i, c := range e.cells {
		out.Cells = append(out.Cells, cellStatus{Index: i, Coord: c.coord, Key: c.key, Cached: s.cache.has(c.key)})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
