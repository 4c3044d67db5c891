// Package obs is the observability plane: a dependency-free metrics
// registry (fixed-log-bucket histograms, and counters and gauges read from
// a function at exposition time) with Prometheus text exposition, plus
// per-request tracing (trace IDs, spans, a recent-trace ring, a
// threshold-gated slow-request log) and the JSONL telemetry writer
// distgnn-train emits epoch events through.
//
// The design contract is "disabled = free": every handle type (*Histogram,
// *TraceCtx, *Tracer) is nil-safe — a nil receiver makes every method a
// no-op — and a nil *Registry hands out nil handles, so code instruments
// unconditionally and pays exactly one nil check when observability is
// off. When on, the hot path is atomic adds only: metrics are
// pre-registered once and never allocate per observation.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed log-bucket count: bucket i covers observations
// ≤ 2^i microseconds (1µs … ~2.1s), the last bucket is +Inf. Fixed and
// shared by every histogram so Observe is pure atomics, no allocation.
const histBuckets = 22

// Histogram is a fixed-log-bucket latency histogram. Observe is three
// atomic adds; the bucket layout is 2^i microseconds. Nil-safe.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64 // +1: the +Inf overflow bucket
	count   atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	us := d.Microseconds()
	idx := 0
	if us > 1 {
		idx = bits.Len64(uint64(us - 1)) // smallest i with us ≤ 2^i
	}
	if idx > histBuckets {
		idx = histBuckets
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the number of observations (0 when nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// bucketBoundSeconds returns finite bucket i's upper bound in seconds.
func bucketBoundSeconds(i int) float64 {
	return float64(uint64(1)<<uint(i)) / 1e6
}

// metricKind discriminates the exposition shape.
type metricKind int

const (
	kindHistogram metricKind = iota
	kindCounterFunc
	kindGaugeFunc
)

// metric is one registered entry: a rendered full name (base plus optional
// {label="v"} suffix), its kind, and the live value source.
type metric struct {
	name string
	help string
	kind metricKind
	h    *Histogram
	fn   func() float64
}

// baseName strips the label suffix for HELP/TYPE grouping.
func (m *metric) baseName() string {
	if i := strings.IndexByte(m.name, '{'); i >= 0 {
		return m.name[:i]
	}
	return m.name
}

// labels returns the rendered label body (without braces), or "".
func (m *metric) labels() string {
	if i := strings.IndexByte(m.name, '{'); i >= 0 {
		return strings.TrimSuffix(m.name[i+1:], "}")
	}
	return ""
}

// Registry holds registered metrics and renders them. A nil *Registry is
// the disabled plane: every registration returns a nil handle and every
// exposition writes nothing.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

// Label renders name{k="v"} — the registration-time label helper. Metrics
// are registered under fully rendered names so the hot path never formats.
func Label(name, k, v string) string {
	return fmt.Sprintf("%s{%s=%q}", name, k, v)
}

// register adds m unless the name exists, in which case the existing entry
// wins (idempotent re-registration hands back the same handle).
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[m.name]; ok {
		return prev
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Histogram registers (or retrieves) a fixed-log-bucket histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(&metric{name: name, help: help, kind: kindHistogram, h: &Histogram{}}).h
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the zero-hot-path-cost bridge to counters that already
// exist as atomics elsewhere (coalescer, caches, featstore, frontend).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, kind: kindCounterFunc, fn: fn})
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// snapshot returns the registered metrics sorted by (base, full) name.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		bi, bj := ms[i].baseName(), ms[j].baseName()
		if bi != bj {
			return bi < bj
		}
		return ms[i].name < ms[j].name
	})
	return ms
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Metrics sharing a base name (label variants)
// share one HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastBase := ""
	for _, m := range r.snapshot() {
		base := m.baseName()
		if base != lastBase {
			lastBase = base
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", base, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, typeString(m.kind))
		}
		switch m.kind {
		case kindCounterFunc, kindGaugeFunc:
			fmt.Fprintf(&b, "%s %g\n", m.name, m.fn())
		case kindHistogram:
			writeHistogram(&b, base, m.labels(), m.h)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func typeString(k metricKind) string {
	switch k {
	case kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet,
// splicing the le label after any registration-time labels.
func writeHistogram(b *strings.Builder, base, labels string, h *Histogram) {
	prefix := ""
	if labels != "" {
		prefix = labels + ","
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", base, prefix, formatLe(bucketBoundSeconds(i)), cum)
	}
	cum += h.buckets[histBuckets].Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", base, prefix, cum)
	if labels != "" {
		fmt.Fprintf(b, "%s_sum{%s} %g\n", base, labels, float64(h.sumNs.Load())/1e9)
		fmt.Fprintf(b, "%s_count{%s} %d\n", base, labels, h.count.Load())
	} else {
		fmt.Fprintf(b, "%s_sum %g\n", base, float64(h.sumNs.Load())/1e9)
		fmt.Fprintf(b, "%s_count %d\n", base, h.count.Load())
	}
}

func formatLe(sec float64) string {
	return fmt.Sprintf("%g", sec)
}

// Handler serves the Prometheus exposition over GET. A nil registry
// serves 404 so the endpoint honestly reports "disabled".
func (r *Registry) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if r == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	}
}
