package serve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"tegrecon/internal/store"
)

// TestStatsSnapshot drives one computed run and one cached repeat
// through the handler and checks the Stats snapshot agrees with the
// /metrics counters: two runs accepted, one computation, one cache hit,
// ticks flowing.
func TestStatsSnapshot(t *testing.T) {
	s := New(Config{})
	body := `{"cycle":"nedc","scheme":"baseline","duration_s":30}`

	for i := 0; i < 2; i++ {
		req := httptest.NewRequest("POST", "/v1/runs", strings.NewReader(body))
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		if rr.Code != 200 {
			t.Fatalf("request %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
	}

	st := s.Stats()
	if st.Runs != 2 {
		t.Errorf("Runs = %d, want 2", st.Runs)
	}
	if st.Computations != 1 {
		t.Errorf("Computations = %d, want 1 (second request must be a cache hit)", st.Computations)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.CacheHitRatio != 0.5 {
		t.Errorf("CacheHitRatio = %g, want 0.5", st.CacheHitRatio)
	}
	if st.CacheEntries != 1 {
		t.Errorf("CacheEntries = %d, want 1", st.CacheEntries)
	}
	if st.Ticks <= 0 {
		t.Errorf("Ticks = %d, want > 0", st.Ticks)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("UptimeSeconds = %g, want > 0", st.UptimeSeconds)
	}
	if st.QueueDepth != 0 || st.ActiveSessions != 0 {
		t.Errorf("idle server reports depth %d, active %d", st.QueueDepth, st.ActiveSessions)
	}
}

// TestDiskPutErrorsExposed: a store whose byte budget is below one
// payload refuses the write-through with store.ErrOversize. The refusal
// is counted once per computed payload in Stats and /metrics, and the
// payload is still answered and cached in memory.
func TestDiskPutErrorsExposed(t *testing.T) {
	st, err := store.Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st})
	req := httptest.NewRequest("POST", "/v1/runs", strings.NewReader(`{"cycle":"nedc","scheme":"baseline","duration_s":30}`))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("run: status %d: %s", rr.Code, rr.Body.String())
	}
	stats := s.Stats()
	if stats.DiskPutErrors != 1 || stats.StorePuts != 0 || stats.CacheEntries != 1 {
		t.Fatalf("DiskPutErrors=%d StorePuts=%d CacheEntries=%d, want 1/0/1",
			stats.DiskPutErrors, stats.StorePuts, stats.CacheEntries)
	}
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "\ntegserve_cache_disk_put_errors_total 1\n") {
		t.Fatalf("metrics lack the disk put error counter:\n%s", rr.Body.String())
	}
}
