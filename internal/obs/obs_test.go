package obs

import (
	"bufio"
	"bytes"
	"context"
	"log/slog"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug":     slog.LevelDebug,
		"info":      slog.LevelInfo,
		"WARN":      slog.LevelWarn,
		" warning ": slog.LevelWarn,
		"error":     slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Errorf("ParseLevel(verbose) accepted an unknown level")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatalf("NewLogger(json): %v", err)
	}
	lg.Info("hello", "k", "v")
	if !strings.Contains(buf.String(), `"msg":"hello"`) {
		t.Errorf("json logger output %q lacks msg field", buf.String())
	}
	buf.Reset()
	lg, err = NewLogger(&buf, slog.LevelWarn, "text")
	if err != nil {
		t.Fatalf("NewLogger(text): %v", err)
	}
	lg.Info("dropped")
	lg.Warn("kept")
	if strings.Contains(buf.String(), "dropped") || !strings.Contains(buf.String(), "kept") {
		t.Errorf("level filtering wrong: %q", buf.String())
	}
	if _, err := NewLogger(&buf, slog.LevelInfo, "xml"); err == nil {
		t.Errorf("NewLogger accepted unknown format")
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Errorf("RequestID(empty ctx) = %q", got)
	}
	ctx = WithRequestID(ctx, "req-abc")
	if got := RequestID(ctx); got != "req-abc" {
		t.Errorf("RequestID = %q, want req-abc", got)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if !strings.HasPrefix(a, "req-") || len(a) != 4+16 {
		t.Errorf("NewRequestID() = %q, want req-<16 hex>", a)
	}
	if a == b {
		t.Errorf("two request IDs collided: %q", a)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	if got, ok := SanitizeRequestID("test-123"); !ok || got != "test-123" {
		t.Errorf("clean ID mangled: %q, %v", got, ok)
	}
	if got, ok := SanitizeRequestID("a\r\nInjected: yes"); !ok || strings.ContainsAny(got, "\r\n") {
		t.Errorf("control bytes survived: %q, %v", got, ok)
	}
	if _, ok := SanitizeRequestID("\x00\x01  "); ok {
		t.Errorf("all-control ID reported usable")
	}
	long, ok := SanitizeRequestID(strings.Repeat("x", 4096))
	if !ok || len(long) > maxRequestIDLen {
		t.Errorf("over-long ID not truncated: len=%d", len(long))
	}
}

func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	if b.GoVersion == "" {
		t.Errorf("BuildInfo().GoVersion empty")
	}
	if (Build{}).ShortRevision() != "unknown" {
		t.Errorf("empty revision should read unknown")
	}
	if got := (Build{Revision: strings.Repeat("a", 40)}).ShortRevision(); got != strings.Repeat("a", 12) {
		t.Errorf("ShortRevision = %q", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.5, 1})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	for i := 0; i < 50; i++ {
		h.Observe(0.05) // first bucket
	}
	for i := 0; i < 50; i++ {
		h.Observe(0.3) // second bucket
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	wantSum := 50*0.05 + 50*0.3
	if _, _, sum := h.snapshot(); math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}
	// Median sits at the first/second bucket boundary; p90 interpolates
	// inside the (0.1, 0.5] bucket: 0.1 + 0.4*(90-50)/50 = 0.42.
	if got := h.Quantile(0.9); math.Abs(got-0.42) > 1e-9 {
		t.Errorf("Quantile(0.9) = %v, want 0.42", got)
	}
	// A value past every bound lands in +Inf and quantiles clamp to the
	// last finite bound.
	h2 := NewHistogram([]float64{0.1})
	h2.Observe(99)
	if got := h2.Quantile(0.99); got != 0.1 {
		t.Errorf("+Inf quantile = %v, want clamp to 0.1", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(DefBuckets())
	h.ObserveDuration(250 * time.Millisecond)
	if _, count, sum := h.snapshot(); count != 1 || math.Abs(sum-0.25) > 1e-9 {
		t.Errorf("ObserveDuration recorded count=%d sum=%v", count, sum)
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	h := NewHistogram(DefBuckets())
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.012) })
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f allocs/op, want 0", allocs)
	}
}

// parseExposition splits Prometheus text output into comment lines and
// series samples, shared with the serve-layer format test in spirit.
func parseExposition(t *testing.T, text string) (comments []string, samples map[string]float64) {
	t.Helper()
	samples = make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			comments = append(comments, line)
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return comments, samples
}

func TestHistogramWritePrometheus(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.5})
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(2)
	var buf bytes.Buffer
	h.WritePrometheus(&buf, "test_seconds", "Test latency.")
	out := buf.String()
	comments, samples := parseExposition(t, out)
	if len(comments) != 2 || !strings.Contains(comments[0], "# HELP test_seconds") || !strings.Contains(comments[1], "# TYPE test_seconds histogram") {
		t.Errorf("HELP/TYPE header wrong: %v", comments)
	}
	// Buckets must be cumulative and +Inf must equal _count.
	if samples[`test_seconds_bucket{le="0.1"}`] != 1 ||
		samples[`test_seconds_bucket{le="0.5"}`] != 2 ||
		samples[`test_seconds_bucket{le="+Inf"}`] != 3 {
		t.Errorf("cumulative buckets wrong: %v", samples)
	}
	if samples["test_seconds_count"] != 3 {
		t.Errorf("_count = %v, want 3", samples["test_seconds_count"])
	}
	if math.Abs(samples["test_seconds_sum"]-2.35) > 1e-9 {
		t.Errorf("_sum = %v, want 2.35", samples["test_seconds_sum"])
	}
}

func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec("http_request_seconds", "HTTP latency.", []string{"route", "status"}, []float64{0.1, 1})
	v.With("/v1/run", "200").Observe(0.05)
	v.With("/v1/run", "200").Observe(0.05)
	v.With("/v1/run", "503").Observe(0.5)
	if v.With("/v1/run", "200") != v.With("/v1/run", "200") {
		t.Errorf("With returned distinct children for identical labels")
	}
	var buf bytes.Buffer
	v.WritePrometheus(&buf)
	out := buf.String()
	_, samples := parseExposition(t, out)
	if samples[`http_request_seconds_count{route="/v1/run",status="200"}`] != 2 {
		t.Errorf("labelled _count wrong:\n%s", out)
	}
	if samples[`http_request_seconds_bucket{route="/v1/run",status="503",le="1"}`] != 1 {
		t.Errorf("labelled bucket wrong:\n%s", out)
	}
	if strings.Count(out, "# TYPE http_request_seconds histogram") != 1 {
		t.Errorf("TYPE header should appear exactly once:\n%s", out)
	}
	// Series order must be stable (sorted by label values).
	first := strings.Index(out, `status="200"`)
	second := strings.Index(out, `status="503"`)
	if first < 0 || second < 0 || first > second {
		t.Errorf("series not sorted:\n%s", out)
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("escapeLabel = %q", got)
	}
}
