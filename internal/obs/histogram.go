package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram: a set of ascending
// upper bounds plus an implicit +Inf bucket, each an atomic counter.
// Observe is allocation-free — a short linear scan and three atomic
// adds — so it can sit on the serving hot path. Unlike the counters-
// only metrics that preceded it, a histogram preserves the latency
// *distribution*: tail quantiles (Quantile) instead of a mean that a
// few slow sweeps can quietly dominate.
//
// The zero Histogram is not usable; build one with NewHistogram.
type Histogram struct {
	bounds []float64       // ascending finite upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumBit atomic.Uint64   // math.Float64bits of the running sum
}

// DefBuckets are the default latency bounds in seconds: 1 ms to 60 s
// in a roughly ×2.5 progression — wide enough to hold both a cache hit
// (~µs, first bucket) and a full-cycle sweep (tens of seconds).
func DefBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// NewHistogram builds a histogram over the given ascending upper
// bounds (seconds, for the latency use). The slice is copied. Panics
// on empty or non-ascending bounds — bucket layout is a programming
// decision, not runtime input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || (i > 0 && b <= bounds[i-1]) {
			panic("obs: histogram bounds must be ascending and finite")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBit.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBit.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot reads the buckets once; total and sum derive from that
// single read, so the cumulative series is internally consistent even
// while writers race the scrape.
func (h *Histogram) snapshot() (counts []uint64, total uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total, math.Float64frombits(h.sumBit.Load())
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 {
	_, total, _ := h.snapshot()
	return total
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket
// counts, interpolating linearly inside the containing bucket. An
// empty histogram returns 0; values landing in the +Inf bucket clamp
// to the last finite bound (the histogram cannot see past it).
func (h *Histogram) Quantile(q float64) float64 {
	counts, total, _ := h.snapshot()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// writeSeries emits one labelled histogram series (the *_bucket
// cumulative ladder, *_sum and *_count) in the Prometheus text format.
// labels is the pre-rendered `a="b",c="d"` pairs without braces ("" for
// an unlabelled histogram).
func (h *Histogram) writeSeries(w io.Writer, name, labels string) {
	counts, total, sum := h.snapshot()
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, total)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(sum))
		fmt.Fprintf(w, "%s_count %d\n", name, total)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(sum))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, total)
	}
}

// WritePrometheus emits the histogram with its # HELP / # TYPE header.
func (h *Histogram) WritePrometheus(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	h.writeSeries(w, name, "")
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// HistogramVec is a histogram family partitioned by a fixed set of
// label names (route and status for the HTTP request histogram). Child
// histograms are created on first use and live forever — the label
// space is expected to be small and bounded (registered routes ×
// status codes). With's lookup takes a read lock and one small key
// allocation; the returned child's Observe is the allocation-free hot
// path, so callers on a tight loop hold onto the child.
type HistogramVec struct {
	name, help string
	labelNames []string
	bounds     []float64

	mu    sync.RWMutex
	elems map[string]*Histogram
}

// NewHistogramVec builds an empty family.
func NewHistogramVec(name, help string, labelNames []string, bounds []float64) *HistogramVec {
	if len(labelNames) == 0 {
		panic("obs: HistogramVec needs at least one label name")
	}
	return &HistogramVec{
		name:       name,
		help:       help,
		labelNames: append([]string(nil), labelNames...),
		bounds:     append([]float64(nil), bounds...),
		elems:      make(map[string]*Histogram),
	}
}

// With returns the child histogram for the given label values (one per
// label name, in order), creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", v.name, len(v.labelNames), len(values)))
	}
	key := strings.Join(values, "\x1f")
	v.mu.RLock()
	h, ok := v.elems[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.elems[key]; ok {
		return h
	}
	h = NewHistogram(v.bounds)
	v.elems[key] = h
	return h
}

// WritePrometheus emits every child series under one # HELP / # TYPE
// header, sorted by label values for a stable scrape.
func (v *HistogramVec) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", v.name, v.help, v.name)
	v.mu.RLock()
	keys := make([]string, 0, len(v.elems))
	for k := range v.elems {
		keys = append(keys, k)
	}
	children := make(map[string]*Histogram, len(v.elems))
	for k, h := range v.elems {
		children[k] = h
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		values := strings.Split(k, "\x1f")
		pairs := make([]string, len(values))
		for i, val := range values {
			pairs[i] = fmt.Sprintf("%s=%q", v.labelNames[i], escapeLabel(val))
		}
		children[k].writeSeries(w, v.name, strings.Join(pairs, ","))
	}
}
