// Package serve turns the simulator into a long-lived service:
// simulation-as-a-service over HTTP. It multiplexes many concurrent
// runs and sweeps onto a bounded job queue layered over sim.Session /
// sim.Batch, streams per-control-period ticks to clients as
// Server-Sent Events wired straight into Options.OnTick, and never
// recomputes a deterministic run it has already priced: a canonical
// encoding of each request is hashed into a content-addressed LRU of
// completed result payloads, so a repeat request is answered from
// memory with the byte-identical response.
//
// API (v1):
//
//	GET  /v1/cycles   registered standard drive cycles
//	GET  /v1/schemes  registered reconfiguration schemes
//	POST /v1/runs     one scheme over one cycle, run as the one cell of
//	                  a scenario matrix (JSON result, or SSE tick
//	                  stream with "stream": true)
//	POST /v1/sweeps   cycle × scheme table, rendered from the cells of
//	                  the scenario matrix it translates to (cached per
//	                  cell like /v1/matrix)
//	POST /v1/matrix   declarative scenario matrix (internal/scenario):
//	                  expanded under the admission bounds, every cell
//	                  content-addressed into the result cache, SSE
//	                  per-cell progress with "stream": true
//	GET  /v1/matrix   recently expanded matrices and, per key, each
//	                  cell's cached/pending status
//	/v1/sessions…     long-lived digital-twin sessions with bit-exact
//	                  checkpoint/restore (see sessions.go)
//	GET  /healthz     liveness (503 while draining)
//	GET  /metrics     Prometheus text: queue depth, cache hit rate,
//	                  active sessions, ticks/sec
//
// Shutdown reuses the simulator's context plumbing end to end: Drain
// cancels every in-flight job's context, each aborts within one
// control period (streams close with an `error` event), and Serve's
// http.Server.Shutdown then completes with nothing left running. Open
// twin sessions are sealed instead of killed: steps are refused but
// checkpoints stay fetchable through the DrainGrace window, so clients
// move their twins to another instance without losing state.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/obs"
	"tegrecon/internal/report"
	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
	"tegrecon/internal/store"
)

// Config bounds the server's resources. Zero values pick sane
// defaults, so serve.New(serve.Config{}) is a working server.
type Config struct {
	// MaxConcurrent bounds simultaneously executing jobs (0 → NumCPU).
	MaxConcurrent int
	// MaxQueued bounds jobs waiting for a slot before the server sheds
	// load with 503s (0 → 64; negative admits no waiters at all —
	// every job beyond the executing slots is shed immediately).
	MaxQueued int
	// Workers bounds the sim.Batch pool inside one sweep job
	// (0 → NumCPU).
	Workers int
	// CacheEntries bounds the content-addressed result cache
	// (0 → 256, negative disables caching).
	CacheEntries int
	// CacheBytes bounds the cache's resident payload bytes — the guard
	// against a few huge tick-bearing results defeating the entry
	// bound (0 → 256 MiB; payloads over the budget are never cached).
	CacheBytes int64
	// MaxTicksPerJob rejects requests that would simulate more control
	// periods than this, summed over a sweep's cells (0 → 200000).
	MaxTicksPerJob int
	// MaxModules rejects requests for larger arrays (0 → 500).
	MaxModules int
	// MaxMatrixCells rejects scenario matrices that expand to more
	// cells than this (0 → 2048). The per-job tick bound still applies
	// to the matrix's total tick volume.
	MaxMatrixCells int
	// MaxMatrices bounds the registry of recently expanded matrices
	// kept for GET /v1/matrix cell-status listing (0 → 32).
	MaxMatrices int
	// MaxSessions bounds simultaneously open digital-twin sessions;
	// creates beyond the cap are shed with 503 (0 → 64).
	MaxSessions int
	// MaxRestoreDraws bounds the RNG fast-forward a checkpoint restore
	// may claim (SessionState.RNGDraws): sim already rejects positions a
	// checkpoint's own steps×modules cannot explain, but both numbers
	// come from the client, so this absolute cap is what keeps a forged
	// checkpoint from buying seconds of replay per request
	// (0 → 1e9, roughly a 500-module twin's first two weeks at the
	// paper's 0.5 s cadence; negative → no cap).
	MaxRestoreDraws int64
	// SessionIdleTTL evicts twin sessions untouched for this long. The
	// sweep is opportunistic — it runs on session creates and lists, so
	// the server holds no background goroutine (0 → 30 min).
	SessionIdleTTL time.Duration
	// DrainGrace holds the listener open for this long after Drain
	// before Shutdown closes it, so load balancers probing /healthz
	// over fresh connections observe the 503 and rotate the instance
	// out instead of seeing connection-refused (0 → no grace window;
	// only the Serve path uses it).
	DrainGrace time.Duration
	// Logger receives the server's structured logs — the access log
	// plus queue-shed, cache, session-lifecycle and drain events (nil →
	// discard; an embedded server opts into output, never has to
	// silence it).
	Logger *slog.Logger
	// Store, when non-nil, backs the in-memory result cache with a
	// disk tier (internal/store): gets fall through to it before
	// computing, so results survive restarts and are shared by every
	// process opened on the same directory. Matrix cells are written
	// behind the response and flushed when Serve drains; a SIGKILL
	// loses at most the queued cells, which a later request recomputes
	// to the same bytes. Whole-request payloads computed under the
	// store's cross-process lock are written before the lock is
	// released. The caller opens it (cmd/tegserve wires -store-dir) so
	// New keeps its error-free signature.
	Store *store.Store
	// WorkerPeers lists peer tegserve base URLs (e.g.
	// "http://10.0.0.2:8080"). When non-empty this server becomes a
	// coordinator: /v1/sweeps and /v1/matrix split their cell lists into
	// contiguous shards, fan them out to the peers over POST /v1/shards,
	// and merge the bit-identical partial results into the same envelope
	// a single process would produce; a failed shard is recomputed
	// locally. Peers must be plain workers (no WorkerPeers of their own)
	// with bounds at least as large as the coordinator's.
	WorkerPeers []string
	// PhaseSampleEvery sets sim.Options.PhaseSampleEvery on runs and
	// fresh twin sessions: every N-th control period the four tick
	// phases are wall-clock-timed into the service-wide aggregate
	// behind GET /v1/debug/phases (0 → 16; negative → timing off).
	// Restored sessions step untimed — a checkpoint fixes the physics
	// options and observability knobs are not part of them.
	PhaseSampleEvery int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.NumCPU()
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 64
	}
	if c.MaxQueued < 0 {
		c.MaxQueued = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxTicksPerJob <= 0 {
		c.MaxTicksPerJob = 200000
	}
	if c.MaxModules <= 0 {
		c.MaxModules = 500
	}
	if c.MaxMatrixCells <= 0 {
		c.MaxMatrixCells = 2048
	}
	if c.MaxMatrices <= 0 {
		c.MaxMatrices = 32
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxRestoreDraws == 0 {
		c.MaxRestoreDraws = 1_000_000_000
	}
	if c.MaxRestoreDraws < 0 {
		c.MaxRestoreDraws = math.MaxInt64
	}
	if c.SessionIdleTTL <= 0 {
		c.SessionIdleTTL = 30 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.PhaseSampleEvery == 0 {
		c.PhaseSampleEvery = 16
	}
	if c.PhaseSampleEvery < 0 {
		c.PhaseSampleEvery = 0
	}
	return c
}

// Server is the simulation service. Create one with New, mount
// Handler on any http.Server, or let Serve own the listener lifecycle.
type Server struct {
	cfg      Config
	log      *slog.Logger
	q        *queue
	cache    *cache
	flights  flightGroup
	met      metrics
	phases   phaseAgg
	mux      *http.ServeMux
	handler  http.Handler
	sessions *sessionRegistry
	matrices *matrixRegistry
	peers    *http.Client // shard dispatch client (coordinator mode)

	// drainCtx is the server's lifetime: Drain cancels it once, and every
	// job's context is canceled with it.
	drainCtx  context.Context
	drain     context.CancelFunc
	drainOnce sync.Once
}

// New builds a server with the given bounds.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		q:        newQueue(cfg.MaxConcurrent, cfg.MaxQueued),
		cache:    newCache(cfg.CacheEntries, cfg.CacheBytes, cfg.Store),
		met:      newMetrics(),
		mux:      http.NewServeMux(),
		sessions: newSessionRegistry(cfg.MaxSessions, cfg.SessionIdleTTL),
		matrices: newMatrixRegistry(cfg.MaxMatrices),
		peers:    &http.Client{}, // per-shard deadlines come from contexts
	}
	s.drainCtx, s.drain = context.WithCancel(context.Background())
	s.mux.HandleFunc("GET /v1/cycles", s.handleCycles)
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	s.mux.HandleFunc("POST /v1/matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /v1/shards", s.handleShards)
	s.mux.HandleFunc("GET /v1/matrix", s.handleMatrixList)
	s.mux.HandleFunc("GET /v1/matrix/{key}", s.handleMatrixGet)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleSessionStep)
	s.mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", s.handleSessionCheckpoint)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /v1/debug/phases", s.handleDebugPhases)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.handler = s.withObservability(s.mux)
	return s
}

// Handler returns the server's HTTP handler (the routes behind the
// request-ID / access-log / latency middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Drain begins graceful shutdown: new jobs are refused and every
// in-flight job's context is canceled, aborting each simulation within
// one control period. Safe to call more than once.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.drain()
		s.log.Info("drain started",
			"queue_depth", s.q.depth(),
			"active_jobs", s.q.active(),
			"open_streams", s.met.streams.Load(),
			"twin_sessions", s.sessions.len(),
		)
	})
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.drainCtx.Err() != nil }

// Serve runs the service on the listener until ctx is canceled, then
// drains: jobs abort within a control period, streams close, and —
// after Config.DrainGrace has given health probes a chance to see the
// 503 — the HTTP server shuts down gracefully within drainTimeout.
// Last, every matrix cell still queued for the disk store is written,
// so a drained process leaves all it computed on disk. It returns nil
// on a clean drain.
func (s *Server) Serve(ctx context.Context, l net.Listener, drainTimeout time.Duration) error {
	defer s.cache.flush()
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err // listener failure before shutdown was requested
	case <-ctx.Done():
	}
	s.Drain()
	if s.cfg.DrainGrace > 0 {
		// New jobs are already refused and /healthz answers 503; keep
		// the listener accepting for the grace window so the 503 is
		// reachable over fresh probe connections.
		timer := time.NewTimer(s.cfg.DrainGrace)
		defer timer.Stop()
		select {
		case <-timer.C:
		case err := <-errc:
			return err // listener died mid-grace
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	serr := hs.Shutdown(sctx)
	<-errc // reap the Serve goroutine (http.ErrServerClosed)
	return serr
}

// job runs fn as one unit of simulation work: a run, a stream, a sweep,
// a matrix, a shard, a checkpoint restore or a step batch. fn's context
// derives from parent and is also canceled by Drain, the bridge from
// SIGTERM to every simulation's per-tick abort check; it is an
// AfterFunc registration on the drain context, removed when the job
// ends, so no goroutine waits per job. The job then claims an execution
// slot from the bounded queue — failing with errQueueFull when the wait
// queue is full, or with the context's error when the caller gives up
// first — and fn's run time lands in job_seconds, whose p90 feeds
// Retry-After. Defers release the slot, so a panic in fn cannot leak it.
func (s *Server) job(parent context.Context, fn func(context.Context) error) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	defer context.AfterFunc(s.drainCtx, cancel)()
	if err := s.q.acquire(ctx); err != nil {
		return err
	}
	defer s.q.release()
	defer func(started time.Time) { s.met.jobHist.ObserveDuration(time.Since(started)) }(time.Now())
	return fn(ctx)
}

// storeLockPoll is how often a cross-process single-flight follower
// re-probes the store for the leader's payload.
const storeLockPoll = 100 * time.Millisecond

// computeShared runs a cache miss's computation and fills the cache
// with its payload. compute runs under the drain context, detached
// from any one client, so that a leader's client disconnecting cannot
// poison the coalesced followers waiting on the same result. When a
// disk store is configured the claim widens to every process sharing
// it: the leader first checks whether a peer already landed the
// payload (then only the memory tier takes it), else claims the key's
// store-level lock file before computing. A follower process polls the
// store until the payload appears (or the leader's lock goes stale and
// it inherits the claim). A computed payload goes through cache.put —
// memory and the one disk write — before the lock releases, so waiting
// peers find it on their next probe.
func (s *Server) computeShared(key string, compute func(context.Context) ([]byte, error)) ([]byte, error) {
	fill := func() ([]byte, error) {
		b, err := compute(s.drainCtx)
		if err == nil {
			s.cache.put(key, b)
		}
		return b, err
	}
	st := s.cfg.Store
	if st == nil {
		return fill()
	}
	for {
		if b, ok := st.Get(key); ok {
			s.cache.memPut(key, b)
			return b, nil
		}
		if release, ok := st.TryLock(key); ok {
			b, err := fill()
			release()
			return b, err
		}
		select {
		case <-s.drainCtx.Done():
			return nil, s.drainCtx.Err()
		case <-time.After(storeLockPoll):
		}
	}
}

// --- response helpers ---

// retryAfterSeconds derives a 503's Retry-After from the live load:
// queue depth × the p90 job execution time from the job-latency
// histogram, clamped to [1, 30] seconds. The p90 replaced the old
// global mean because the mean is dishonest under mixed load — a
// stream of millisecond cache-adjacent runs drags it far below what a
// queued client will actually wait behind a few multi-second sweeps.
// An idle or newly started server (no jobs observed yet, or an empty
// queue) advises the 1 s floor; a deep queue of slow sweeps advises up
// to the 30 s ceiling instead of inviting every shed client back while
// the backlog is still draining.
func (s *Server) retryAfterSeconds() int {
	if s.met.jobHist.Count() == 0 {
		return 1
	}
	p90 := s.met.jobHist.Quantile(0.9)
	secs := int(math.Ceil(float64(s.q.depth()) * p90))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

func (s *Server) writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Server) writeHTTPError(w http.ResponseWriter, err *httpError) {
	s.writeJSONError(w, err.status, err.msg)
}

// writeJobError maps an execution failure onto a status: shed load and
// shutdown aborts are retryable 503s, anything else is a 500. The
// request supplies the correlation ID the shed/failure log line needs.
func (s *Server) writeJobError(w http.ResponseWriter, r *http.Request, err error) {
	rid := obs.RequestID(r.Context())
	switch {
	case errors.Is(err, errQueueFull):
		s.log.Warn("queue full, shedding request",
			"request_id", rid, "queue_depth", s.q.depth(), "retry_after_s", s.retryAfterSeconds())
		s.writeJSONError(w, http.StatusServiceUnavailable, "job queue full, retry later")
	case errors.Is(err, context.Canceled) && s.Draining():
		s.writeJSONError(w, http.StatusServiceUnavailable, "server draining")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.writeJSONError(w, http.StatusServiceUnavailable, err.Error())
	default:
		s.log.Error("job failed", "request_id", rid, "error", err)
		s.writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// logCache records one request's cache outcome (hit / miss /
// coalesced) against its correlation ID.
func (s *Server) logCache(r *http.Request, state, key string) {
	s.log.Debug("cache", "state", state, "key", key, "request_id", obs.RequestID(r.Context()))
}

// cachedPayload answers a deterministic request from the result cache
// or computes it exactly once: concurrent misses for one key coalesce
// onto a single flight, whose leader runs compute through
// computeShared, which caches the payload on the way out. It returns
// the payload and its X-Cache state — "hit", "miss" or
// "coalesced" — with the outcome already logged.
func (s *Server) cachedPayload(r *http.Request, key string, compute func(context.Context) ([]byte, error)) ([]byte, string, error) {
	if payload, ok := s.cache.get(key); ok {
		s.logCache(r, "hit", key)
		return payload, "hit", nil
	}
	payload, err, shared := s.flights.do(r.Context(), key, func() ([]byte, error) {
		// Re-check under the flight: a request that lost the race
		// between the cache probe above and joining the flight must
		// not become a second computation of a result that just landed
		// (peek: internal, invisible to the hit/miss accounting).
		if b, ok := s.cache.peek(key); ok {
			return b, nil
		}
		return s.computeShared(key, compute)
	})
	if err != nil {
		return nil, "", err
	}
	state := "miss"
	if shared {
		state = "coalesced"
		s.met.coalesced.Add(1)
	}
	s.logCache(r, state, key)
	return payload, state, nil
}

func writePayload(w http.ResponseWriter, cacheState string, payload []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)+1))
	w.Write(payload)
	w.Write([]byte{'\n'})
}

// --- registry endpoints ---

func (s *Server) handleCycles(w http.ResponseWriter, r *http.Request) {
	type cycleInfo struct {
		Name         string  `json:"name"`
		Description  string  `json:"description"`
		DurationS    float64 `json:"duration_s"`
		SamplePoints int     `json:"sample_points"`
		PeakKPH      float64 `json:"peak_kph"`
	}
	var out struct {
		Cycles []cycleInfo `json:"cycles"`
	}
	for _, c := range drive.Cycles() {
		out.Cycles = append(out.Cycles, cycleInfo{c.Name, c.Description, c.DurationS, c.SamplePoints, c.PeakKPH})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	type schemeInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var out struct {
		Schemes []schemeInfo `json:"schemes"`
	}
	for _, sch := range sim.Schemes() {
		out.Schemes = append(out.Schemes, schemeInfo{sch.Name, sch.Description})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// --- run execution ---

// runMatrix translates a run request into the one-cell scenario matrix
// it runs, sweepMatrix's grid over its one cycle and one scheme, and
// admits it under the matrix bounds. A run's result is therefore that
// matrix cell's, bit for bit. The cycle and scheme are required: an
// empty axis would mean every registered cycle or scheme.
func (s *Server) runMatrix(req RunRequest) (matrixParams, *httpError) {
	if req.Cycle == "" {
		return matrixParams{}, errf(http.StatusBadRequest, "missing cycle (GET /v1/cycles lists them)")
	}
	if req.Scheme == "" {
		return matrixParams{}, errf(http.StatusBadRequest, "missing scheme (GET /v1/schemes lists them)")
	}
	return s.normalizeMatrix(MatrixRequest{Matrix: sweepMatrix(SweepRequest{
		Cycles: []string{req.Cycle}, Schemes: []string{req.Scheme}, MaxDurationS: req.DurationS, TickS: req.TickS,
		Seed: req.Seed, SensorNoiseC: req.SensorNoiseC, Modules: req.Modules, HorizonTicks: req.HorizonTicks,
	})})
}

// runCell replays a run's one cell job through the Session engine (via
// sim.Run). Only the options the cell leaves to the transport are set:
// the battery, kept ticks, phase sampling, and the service's observers
// wired into Options.OnTick.
func (s *Server) runCell(ctx context.Context, job sim.Job, battery, keepTicks bool, onTick func(sim.Tick)) (*sim.Result, error) {
	job.Opts.Battery = battery
	job.Opts.KeepTicks = keepTicks
	job.Opts.PhaseSampleEvery = s.cfg.PhaseSampleEvery
	job.Opts.OnTick = func(t sim.Tick) {
		s.met.ticks.Add(1)
		if onTick != nil {
			onTick(t)
		}
	}
	res, err := sim.Run(ctx, job.Sys, job.Trace, job.Ctrl, job.Opts)
	if err == nil {
		// Sampled phase timings are observability, not physics: they fold
		// into the service aggregate here and never into the serialized
		// (cached, byte-identity-checked) payload.
		s.phases.add(res.Phases)
	}
	return res, err
}

// runPayload expands the run's matrix and runs its cell as a job, then
// encodes the versioned result payload.
func (s *Server) runPayload(ctx context.Context, m *scenario.Matrix, battery, keepTicks bool) ([]byte, error) {
	var payload []byte
	err := s.job(ctx, func(ctx context.Context) error {
		s.met.computations.Add(1)
		ex, err := m.Expand()
		if err != nil {
			return err
		}
		res, err := s.runCell(ctx, ex.Jobs[0], battery, keepTicks, nil)
		if err != nil {
			return err
		}
		payload, err = report.MarshalResult(res)
		return err
	})
	return payload, err
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if herr := decodeJSON(w, r, &req); herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	// The Accept header is the second way to ask for a stream; fold it
	// into the body flag before keying so both spellings get identical
	// treatment (in particular, ticks are never kept for streams — they
	// already travel as events). Compound values like
	// "text/event-stream, */*" or appended parameters count too.
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		req.Stream = true
	}
	p, herr := s.runMatrix(req)
	if herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	if s.Draining() {
		s.writeJSONError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.met.runs.Add(1)
	keepTicks := req.Ticks && !req.Stream
	key := runKey(p.m, req.Battery, keepTicks)
	w.Header().Set("X-Cache-Key", key)
	if req.Stream {
		s.streamRun(w, r, p.m, req.Battery, key)
		return
	}
	payload, state, err := s.cachedPayload(r, key, func(ctx context.Context) ([]byte, error) {
		return s.runPayload(ctx, p.m, req.Battery, keepTicks)
	})
	if err != nil {
		s.writeJobError(w, r, err)
		return
	}
	writePayload(w, state, payload)
}

// stream answers a request with Server-Sent Events as one job. body
// runs the simulation, sending its own events — `start` first, then
// ticks or cells — and returns the summary payload; the stream closes
// with exactly one terminal event, `summary` carrying that payload or
// `error`. The summary also back-fills the result cache under key. A
// failed write means the client went away: it cancels the
// job, so the simulation stops at its next per-tick context check
// instead of simulating into a dead socket, and no terminal event
// follows.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, key string,
	body func(ctx context.Context, send func(name string, data []byte) error) ([]byte, error)) {
	err := s.job(r.Context(), func(ctx context.Context) error {
		ew, err := newEventWriter(w)
		if err != nil {
			s.writeJSONError(w, http.StatusInternalServerError, err.Error())
			return nil
		}
		s.met.streams.Add(1)
		s.met.computations.Add(1)
		defer func(started time.Time) {
			s.met.streams.Add(-1)
			s.met.streamHist.ObserveDuration(time.Since(started))
		}(time.Now())
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var gone error
		send := func(name string, data []byte) error {
			if gone == nil {
				if gone = ew.event(name, data); gone != nil {
					cancel()
				}
			}
			return gone
		}
		payload, err := body(ctx, send)
		switch {
		case gone != nil:
		case err != nil:
			msg, _ := json.Marshal(map[string]string{"error": err.Error()})
			ew.event("error", msg)
		default:
			s.cache.put(key, payload)
			ew.event("summary", payload)
		}
		return nil
	})
	if err != nil {
		s.writeJobError(w, r, err)
	}
}

// streamRun answers a run request with Server-Sent Events: `start`,
// one `tick` per control period straight from Options.OnTick, then the
// terminal `summary` (or `error`). The summary also back-fills the
// result cache.
func (s *Server) streamRun(w http.ResponseWriter, r *http.Request, m *scenario.Matrix, battery bool, key string) {
	s.stream(w, r, key, func(ctx context.Context, send func(string, []byte) error) ([]byte, error) {
		ex, err := m.Expand()
		if err != nil {
			return nil, err
		}
		cell := ex.Cells[0]
		start, _ := json.Marshal(map[string]any{
			"key":        key,
			"cycle":      cell.Cycle,
			"scheme":     cell.Scheme,
			"duration_s": cell.DurationS,
			"tick_s":     m.TickS,
		})
		if err := send("start", start); err != nil {
			return nil, err
		}
		var tickErr error
		res, err := s.runCell(ctx, ex.Jobs[0], battery, false, func(t sim.Tick) {
			if tickErr == nil {
				var b []byte
				if b, tickErr = report.MarshalTick(t); tickErr == nil {
					tickErr = send("tick", b)
				}
			}
		})
		if tickErr != nil {
			return nil, tickErr
		}
		if err != nil {
			return nil, err
		}
		return report.MarshalResult(res)
	})
}

// --- sweep execution ---

// sweepEnvelope is the /v1/sweeps response: the versioned rendering of
// the cycle × scheme matrix, shared with the report package's table
// schema.
type sweepEnvelope struct {
	Version int           `json:"version"`
	Table   *report.Table `json:"table"`
}

// sweepMatrix translates a sweep request into the scenario matrix it
// renders: scenario.CycleSweep's grid at one array size, under the
// request's run parameters.
func sweepMatrix(req SweepRequest) scenario.Matrix {
	m := scenario.CycleSweep(req.Cycles, req.Schemes, req.MaxDurationS)
	m.TickS = req.TickS
	m.SensorNoiseC = req.SensorNoiseC
	m.HorizonTicks = req.HorizonTicks
	if req.Seed != nil {
		m.Seed = *req.Seed
	}
	if req.Modules != 0 {
		m.ArraySizes = []int{req.Modules}
	}
	return m
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if herr := decodeJSON(w, r, &req); herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	p, herr := s.normalizeMatrix(MatrixRequest{Matrix: sweepMatrix(req)})
	if herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	if s.Draining() {
		s.writeJSONError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.met.sweeps.Add(1)
	key, err := matrixKey("sweep", p.m)
	if err != nil {
		s.writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("X-Cache-Key", key)
	s.serveMatrix(w, r, p, key, func(cells []experiments.MatrixCell) ([]byte, error) {
		return json.Marshal(sweepEnvelope{Version: report.ResultVersion, Table: report.FromSweep(p.m, cells)})
	})
}
