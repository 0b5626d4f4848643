// Command tegserve runs the simulation service: the paper's
// reconfiguration schemes behind an HTTP API with a bounded job queue,
// SSE tick streaming and a content-addressed result cache
// (internal/serve).
//
// Usage:
//
//	tegserve [-addr :8080] [-max-concurrent 0] [-max-queued 64]
//	         [-workers 0] [-cache 256] [-cache-mb 256] [-drain-timeout 15s]
//	         [-max-sessions 64] [-session-ttl 30m]
//	         [-max-matrix-cells 2048] [-max-matrices 32]
//	         [-log-level info] [-log-format text] [-phase-sample 0]
//	         [-pprof-addr ""] [-store-dir ""] [-store-max-mb 4096]
//	         [-worker-peers ""]
//
// Quick look:
//
//	tegserve -addr 127.0.0.1:8080 &
//	curl -s localhost:8080/v1/schemes
//	curl -s -N -d '{"cycle":"wltc","scheme":"dnor","duration_s":60,"stream":true}' localhost:8080/v1/runs
//	curl -s -d '{"scheme":"dnor","modules":50}' localhost:8080/v1/sessions
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/debug/phases
//
// Every response carries an X-Request-ID header (client-supplied or
// server-minted) that also tags the request's structured access-log
// line, so one ID correlates a client report with the server's view.
// -pprof-addr serves net/http/pprof on its own listener, kept off the
// public address so profiling endpoints are never internet-facing.
//
// -store-dir adds a persistent content-addressed disk tier under the
// in-memory cache: results survive restarts bit-exactly and are shared
// (with cross-process single-flight) by every tegserve pointed at the
// same directory. Matrix cells are written behind the response and
// flushed when SIGTERM drains the process. -worker-peers turns the
// process into a sweep/matrix coordinator that shards grid cells
// across the listed plain-worker tegserve processes over POST
// /v1/shards, merging their partial results into the same
// byte-identical envelope a single process produces and recomputing
// locally any shard whose worker dies. See docs/DISTRIBUTION.md.
//
// SIGINT/SIGTERM drain gracefully: in-flight simulations abort within
// one control period, streams close, and the process exits 0.
package main

import (
	"context"
	"flag"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tegrecon/internal/obs"
	"tegrecon/internal/serve"
	"tegrecon/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		maxConc      = flag.Int("max-concurrent", 0, "simultaneously executing jobs (0 = all CPUs)")
		maxQueued    = flag.Int("max-queued", 64, "jobs allowed to wait for a slot before load-shedding with 503s (negative = shed immediately, no waiters)")
		workers      = flag.Int("workers", 0, "sim.Batch worker pool inside one sweep job (0 = all CPUs)")
		cacheSize    = flag.Int("cache", 256, "content-addressed result cache entries (negative disables)")
		cacheMB      = flag.Int64("cache-mb", 256, "result cache byte budget in MiB")
		maxTicks     = flag.Int("max-ticks", 0, "per-job simulated control period limit (0 = 200000)")
		maxCells     = flag.Int("max-matrix-cells", 0, "cells a POST /v1/matrix spec may expand to (0 = 2048)")
		maxMatrices  = flag.Int("max-matrices", 0, "matrices remembered for GET /v1/matrix status (0 = 32)")
		maxSessions  = flag.Int("max-sessions", 0, "simultaneously open digital-twin sessions (0 = 64)")
		sessionTTL   = flag.Duration("session-ttl", 0, "evict twin sessions idle this long (0 = 30m)")
		maxRestore   = flag.Int64("max-restore-draws", 0, "RNG fast-forward a checkpoint restore may claim, in draws (0 = 1e9, negative = unbounded)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown deadline")
		drainGrace   = flag.Duration("drain-grace", 0, "keep the listener open this long after the drain starts so LB health probes observe the 503")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat    = flag.String("log-format", "text", "log encoding: text or json")
		phaseSample  = flag.Int("phase-sample", 0, "tick-phase timing sample interval: time 1 in N control periods (0 = 16, negative = off)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off; keep it loopback-only)")
		storeDir     = flag.String("store-dir", "", "persistent content-addressed result store directory (empty = memory-only cache)")
		storeMaxMB   = flag.Int64("store-max-mb", 4096, "disk store byte budget in MiB; least-recently-used payloads are evicted above it")
		workerPeers  = flag.String("worker-peers", "", "comma-separated base URLs of worker tegserve processes to shard sweeps and matrices across (empty = compute locally)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	log, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		fatal(err)
	}

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, *storeMaxMB<<20)
		if err != nil {
			log.Error("store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		log.Info("store opened", "dir", *storeDir, "objects", st.Len(), "bytes", st.Bytes())
	}
	var peers []string
	for _, p := range strings.Split(*workerPeers, ",") {
		if p = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(p), "/")); p != "" {
			peers = append(peers, p)
		}
	}
	if len(peers) > 0 {
		log.Info("coordinating shards", "peers", strings.Join(peers, ","))
	}

	// First signal starts the drain; a second one falls through to the
	// default handler and kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := serve.New(serve.Config{
		MaxConcurrent:    *maxConc,
		MaxQueued:        *maxQueued,
		Workers:          *workers,
		CacheEntries:     *cacheSize,
		CacheBytes:       *cacheMB << 20,
		MaxTicksPerJob:   *maxTicks,
		MaxMatrixCells:   *maxCells,
		MaxMatrices:      *maxMatrices,
		MaxSessions:      *maxSessions,
		SessionIdleTTL:   *sessionTTL,
		MaxRestoreDraws:  *maxRestore,
		DrainGrace:       *drainGrace,
		Logger:           log,
		PhaseSampleEvery: *phaseSample,
		Store:            st,
		WorkerPeers:      peers,
	})

	// The profiling listener is deliberately separate from the API one:
	// pprof exposes heap contents and CPU samples, so it binds only
	// where the operator points it and never rides the public mux.
	if *pprofAddr != "" {
		pl, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Error("pprof listen failed", "addr", *pprofAddr, "err", err)
			os.Exit(1)
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Info("pprof listening", "addr", pl.Addr().String())
		go func() {
			if err := http.Serve(pl, pm); err != nil {
				log.Warn("pprof server stopped", "err", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	log.Info("listening", "addr", l.Addr().String(), "url", "http://"+l.Addr().String())
	if err := srv.Serve(ctx, l, *drainTimeout); err != nil {
		log.Error("serve failed", "err", err)
		os.Exit(1)
	}
	log.Info("drained cleanly")
}

// fatal reports a startup error before the logger exists.
func fatal(err error) {
	os.Stderr.WriteString("tegserve: " + err.Error() + "\n")
	os.Exit(1)
}
