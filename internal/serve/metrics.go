// Observability: /healthz for load-balancer liveness (flips to 503
// while draining so traffic moves away before the listener closes) and
// /metrics in the Prometheus text exposition format — queue depth,
// cache hit rate, active sessions and tick throughput, the four
// numbers that say whether the service is keeping up.

package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"tegrecon/internal/obs"
	"tegrecon/internal/sim"
)

// metrics holds the server's monotonic counters and latency
// histograms. Gauges (queue depth, active sessions, cache entries) are
// read live from their owners.
type metrics struct {
	start            time.Time
	ticks            atomic.Int64 // control periods simulated, all jobs
	computations     atomic.Int64 // jobs actually executed (cache/coalesce misses)
	runs             atomic.Int64 // POST /v1/runs accepted
	sweeps           atomic.Int64 // POST /v1/sweeps accepted
	matrices         atomic.Int64 // POST /v1/matrix accepted
	matrixCells      atomic.Int64 // matrix cells actually simulated (not recalled from cache)
	coalesced        atomic.Int64 // requests served by waiting on an identical in-flight job
	streams          atomic.Int64 // live SSE streams (gauge)
	sessionsCreated  atomic.Int64 // twin sessions opened (fresh and restored)
	sessionsRestored atomic.Int64 // twin sessions opened from a checkpoint
	sessionsEvicted  atomic.Int64 // twin sessions evicted past the idle TTL
	sessionSteps     atomic.Int64 // control periods applied through /v1/sessions/{id}/step
	checkpoints      atomic.Int64 // checkpoint payloads served
	shardsDispatched atomic.Int64 // shards posted to worker peers (coordinator)
	shardRetries     atomic.Int64 // failed shards recomputed locally (coordinator)
	shardsServed     atomic.Int64 // POST /v1/shards accepted (worker)

	// Latency distributions. The counters above say how much; these say
	// how long — per-route request latency, job execution time (the p90
	// feeding Retry-After), and SSE stream lifetimes.
	httpHist   *obs.HistogramVec // http_request_seconds{route,status}
	jobHist    *obs.Histogram    // job_seconds
	streamHist *obs.Histogram    // stream_seconds
}

func newMetrics() metrics {
	return metrics{
		start: time.Now(),
		httpHist: obs.NewHistogramVec("http_request_seconds",
			"HTTP request latency by route and status.",
			[]string{"route", "status"}, obs.DefBuckets()),
		jobHist:    obs.NewHistogram(obs.DefBuckets()),
		streamHist: obs.NewHistogram(obs.DefBuckets()),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	b := obs.BuildInfo()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":          status,
		"uptime_s":        time.Since(s.met.start).Seconds(),
		"active_sessions": s.q.active(),
		"queue_depth":     s.q.depth(),
		"cache_entries":   s.cache.len(),
		"twin_sessions":   s.sessions.len(),
		"go_version":      b.GoVersion,
		"revision":        b.ShortRevision(),
		"modified":        b.Modified,
	})
}

// Stats is a point-in-time snapshot of the server's observable state —
// the same numbers /metrics exposes, in struct form for embedding
// consumers (the tegbench perf harness reads cache hits and simulated
// ticks through it instead of scraping the Prometheus text).
type Stats struct {
	UptimeSeconds  float64 // seconds since the server started
	QueueDepth     int64   // jobs waiting for an execution slot
	ActiveSessions int     // jobs holding execution slots
	ActiveStreams  int64   // live SSE streams
	Runs           int64   // run requests accepted
	Sweeps         int64   // sweep requests accepted
	Matrices       int64   // scenario-matrix requests accepted
	MatrixCells    int64   // matrix cells actually simulated (cache misses)
	Computations   int64   // jobs actually simulated
	Coalesced      int64   // requests that shared an in-flight computation
	CacheHits      int64   // result cache hits
	CacheMisses    int64   // result cache misses
	CacheEntries   int     // results currently cached
	CacheBytes     int64   // resident cached payload bytes
	Ticks          int64   // control periods simulated across all jobs
	TicksPerSecond float64 // lifetime mean simulated ticks per wall-clock second
	CacheHitRatio  float64 // lifetime hit ratio, 0 when no lookups yet

	DiskHits         int64 // cache hits answered by the disk tier
	DiskPutErrors    int64 // disk-tier writes refused, queued ones included (disk full, perms, oversize)
	DiskWritesQueued int   // matrix cells queued for a disk write, not yet on disk
	DiskInlineWrites int64 // matrix-cell disk writes done inline because the queue was full
	ShardsDispatched int64 // shards posted to worker peers (coordinator mode)
	ShardRetries     int64 // failed shards recomputed locally
	ShardsServed     int64 // shard requests accepted from a coordinator
	StoreObjects     int64 // payloads resident in the disk store (0 when no store)
	StoreBytes       int64 // resident disk-store payload bytes
	StorePuts        int64 // payloads written to the disk store
	StoreEvictions   int64 // disk-store objects evicted past the byte budget

	TwinSessions     int   // twin sessions currently open
	SessionsCreated  int64 // twin sessions opened (fresh and restored)
	SessionsRestored int64 // twin sessions opened from a checkpoint
	SessionsEvicted  int64 // twin sessions evicted past the idle TTL
	SessionSteps     int64 // control periods applied through session steps
	Checkpoints      int64 // checkpoint payloads served

	// Phases is the service-wide sampled phase-timing aggregate (see
	// GET /v1/debug/phases); zero when phase sampling is disabled.
	Phases sim.PhaseTimings
}

// Stats snapshots the server's counters. The counters are independent
// atomics, so the snapshot is per-field consistent, not a transaction.
func (s *Server) Stats() Stats {
	uptime := time.Since(s.met.start).Seconds()
	hits, misses := s.cache.hits.Load(), s.cache.misses.Load()
	st := Stats{
		UptimeSeconds:  uptime,
		QueueDepth:     s.q.depth(),
		ActiveSessions: s.q.active(),
		ActiveStreams:  s.met.streams.Load(),
		Runs:           s.met.runs.Load(),
		Sweeps:         s.met.sweeps.Load(),
		Matrices:       s.met.matrices.Load(),
		MatrixCells:    s.met.matrixCells.Load(),
		Computations:   s.met.computations.Load(),
		Coalesced:      s.met.coalesced.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEntries:   s.cache.len(),
		CacheBytes:     s.cache.size(),
		Ticks:          s.met.ticks.Load(),

		DiskHits:         s.cache.diskHits.Load(),
		DiskPutErrors:    s.cache.diskPutErrors.Load(),
		DiskWritesQueued: s.cache.queuedLen(),
		DiskInlineWrites: s.cache.inlineWrites.Load(),
		ShardsDispatched: s.met.shardsDispatched.Load(),
		ShardRetries:     s.met.shardRetries.Load(),
		ShardsServed:     s.met.shardsServed.Load(),

		TwinSessions:     s.sessions.len(),
		SessionsCreated:  s.met.sessionsCreated.Load(),
		SessionsRestored: s.met.sessionsRestored.Load(),
		SessionsEvicted:  s.met.sessionsEvicted.Load(),
		SessionSteps:     s.met.sessionSteps.Load(),
		Checkpoints:      s.met.checkpoints.Load(),

		Phases: s.phases.snapshot(),
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Snapshot()
		st.StoreObjects = ss.Objects
		st.StoreBytes = ss.Bytes
		st.StorePuts = ss.Puts
		st.StoreEvictions = ss.Evictions
	}
	if hits+misses > 0 {
		st.CacheHitRatio = float64(hits) / float64(hits+misses)
	}
	if uptime > 0 {
		st.TicksPerSecond = float64(st.Ticks) / uptime
	}
	return st
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// One Stats snapshot feeds every row: the counters are independent
	// atomics, so reading them twice would let derived values (the hit
	// ratio, ticks/sec) disagree with the totals printed next to them.
	// Only the static bounds are read from the config directly.
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	type row struct {
		name, help, typ string
		value           any
	}
	rows := []row{
		{"tegserve_uptime_seconds", "Seconds since the server started.", "gauge", st.UptimeSeconds},
		{"tegserve_queue_depth", "Jobs waiting for an execution slot.", "gauge", st.QueueDepth},
		{"tegserve_queue_capacity", "Maximum jobs allowed to wait for a slot (queue_depth's bound).", "gauge", s.cfg.MaxQueued},
		{"tegserve_max_concurrent", "Maximum simultaneously executing jobs.", "gauge", cap(s.q.slots)},
		{"tegserve_active_sessions", "Jobs holding execution slots right now.", "gauge", st.ActiveSessions},
		{"tegserve_active_streams", "Live SSE run streams.", "gauge", st.ActiveStreams},
		{"tegserve_runs_total", "Run requests accepted.", "counter", st.Runs},
		{"tegserve_sweeps_total", "Sweep requests accepted.", "counter", st.Sweeps},
		{"tegserve_matrices_total", "Scenario-matrix requests accepted.", "counter", st.Matrices},
		{"tegserve_matrix_cells_total", "Matrix cells actually simulated (not recalled from the cell cache).", "counter", st.MatrixCells},
		{"tegserve_computations_total", "Jobs actually simulated (not served from cache or coalesced).", "counter", st.Computations},
		{"tegserve_coalesced_total", "Requests that shared an identical in-flight computation.", "counter", st.Coalesced},
		{"tegserve_cache_hits_total", "Result cache hits.", "counter", st.CacheHits},
		{"tegserve_cache_misses_total", "Result cache misses.", "counter", st.CacheMisses},
		{"tegserve_cache_entries", "Results currently cached.", "gauge", st.CacheEntries},
		{"tegserve_cache_bytes", "Resident bytes of cached result payloads.", "gauge", st.CacheBytes},
		{"tegserve_cache_hit_ratio", "Lifetime cache hit ratio.", "gauge", st.CacheHitRatio},
		{"tegserve_cache_disk_hits_total", "Cache hits answered by the disk store tier.", "counter", st.DiskHits},
		{"tegserve_cache_disk_put_errors_total", "Result payloads the disk store tier failed to write, queued writes included (disk full, permissions, over its byte budget).", "counter", st.DiskPutErrors},
		{"tegserve_cache_disk_writes_queued", "Matrix cells answered but still queued for their disk store write.", "gauge", st.DiskWritesQueued},
		{"tegserve_cache_disk_inline_writes_total", "Matrix-cell disk writes done on the request path because the write-behind queue was full.", "counter", st.DiskInlineWrites},
		{"tegserve_store_objects", "Payloads resident in the disk store.", "gauge", st.StoreObjects},
		{"tegserve_store_bytes", "Resident disk-store payload bytes.", "gauge", st.StoreBytes},
		{"tegserve_store_puts_total", "Payloads written to the disk store.", "counter", st.StorePuts},
		{"tegserve_store_evictions_total", "Disk-store objects evicted past the byte budget.", "counter", st.StoreEvictions},
		{"tegserve_shards_dispatched_total", "Shards posted to worker peers (coordinator mode).", "counter", st.ShardsDispatched},
		{"tegserve_shard_retries_total", "Failed shards recomputed locally.", "counter", st.ShardRetries},
		{"tegserve_shards_served_total", "Shard requests accepted from a coordinator.", "counter", st.ShardsServed},
		{"tegserve_ticks_total", "Control periods simulated across all jobs.", "counter", st.Ticks},
		{"tegserve_ticks_per_second", "Lifetime mean simulated control periods per wall-clock second.", "gauge", st.TicksPerSecond},
		{"tegserve_twin_sessions", "Digital-twin sessions currently open.", "gauge", st.TwinSessions},
		{"tegserve_twin_sessions_max", "Maximum simultaneously open twin sessions.", "gauge", s.cfg.MaxSessions},
		{"tegserve_twin_sessions_created_total", "Twin sessions opened (fresh and restored).", "counter", st.SessionsCreated},
		{"tegserve_twin_sessions_restored_total", "Twin sessions opened from a checkpoint.", "counter", st.SessionsRestored},
		{"tegserve_twin_sessions_evicted_total", "Twin sessions evicted past the idle TTL.", "counter", st.SessionsEvicted},
		{"tegserve_twin_session_steps_total", "Control periods applied through session steps.", "counter", st.SessionSteps},
		{"tegserve_twin_checkpoints_total", "Checkpoint payloads served.", "counter", st.Checkpoints},
	}
	for _, m := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		switch v := m.value.(type) {
		case float64:
			fmt.Fprintf(w, "%s %g\n", m.name, v)
		default:
			fmt.Fprintf(w, "%s %d\n", m.name, v)
		}
	}

	// Build identity: the constant-1 info-metric idiom, so a fleet query
	// can group instances by the revision they run.
	b := obs.BuildInfo()
	fmt.Fprintf(w, "# HELP tegserve_build_info Build identity of the running binary (constant 1).\n# TYPE tegserve_build_info gauge\n")
	fmt.Fprintf(w, "tegserve_build_info{go_version=%q,revision=%q,modified=%q} 1\n",
		b.GoVersion, b.ShortRevision(), strconv.FormatBool(b.Modified))

	// Sampled tick-phase timings (GET /v1/debug/phases in scrapeable
	// form): which of temps/sense/decide/act the fleet's workload spends
	// its simulated control periods in.
	fmt.Fprintf(w, "# HELP tegserve_phase_samples_total Fully phase-timed control periods (1-in-N sampling).\n# TYPE tegserve_phase_samples_total counter\n")
	fmt.Fprintf(w, "tegserve_phase_samples_total %d\n", st.Phases.Samples)
	fmt.Fprintf(w, "# HELP tegserve_phase_seconds_total Sampled wall-clock seconds per tick phase.\n# TYPE tegserve_phase_seconds_total counter\n")
	for _, p := range []struct {
		phase string
		ns    int64
	}{
		{"temps", st.Phases.TempsNs},
		{"sense", st.Phases.SenseNs},
		{"decide", st.Phases.DecideNs},
		{"act", st.Phases.ActNs},
	} {
		fmt.Fprintf(w, "tegserve_phase_seconds_total{phase=%q} %g\n", p.phase, float64(p.ns)/1e9)
	}

	s.met.httpHist.WritePrometheus(w)
	s.met.jobHist.WritePrometheus(w, "job_seconds", "Job execution time (runs, sweeps, matrices, restores, step batches).")
	s.met.streamHist.WritePrometheus(w, "stream_seconds", "SSE stream lifetime from accept to close.")
}
