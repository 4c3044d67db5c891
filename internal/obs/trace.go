package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// trace.go is the request-tracing leg: a 64-bit trace ID minted at the
// fleet entry point (the frontend, or a directly-hit server), carried via
// the TraceHeader HTTP header across the frontend → shard hop and via the
// ReqRep frame extension across halo fetches, so one tail request is
// attributable end to end across ranks. Per-stage spans accumulate in a
// TraceCtx; a Tracer keeps finished traces in a fixed ring (served by
// GET /debug/trace/recent) and writes threshold-gated JSONL slow-request
// records.

// TraceHeader carries the hex trace ID between HTTP hops (frontend →
// shard) and back to the client on responses.
const TraceHeader = "X-Distgnn-Trace"

// traceState seeds NewTraceID: a per-process random base (splitmix64 of
// the start time and pid) plus an atomic sequence, so IDs are unique
// across a fleet's processes without coordination.
var (
	traceBase = splitmix64(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32)
	traceSeq  atomic.Uint64
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceID mints a nonzero 64-bit trace ID. Zero means "untraced"
// everywhere (headers, ReqRep frames), so the zero value is never minted.
func NewTraceID() uint64 {
	id := splitmix64(traceBase + traceSeq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// FormatTraceID renders an ID the way headers and logs carry it.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses FormatTraceID's output; ok is false for malformed
// or zero IDs.
func ParseTraceID(s string) (uint64, bool) {
	id, err := strconv.ParseUint(s, 16, 64)
	return id, err == nil && id != 0
}

// OpenRequest opens an HTTP request's trace context: nil when the whole obs
// plane is off (disabled = free), ID-less when only metrics are on (stage
// timing without cross-rank attribution), and carrying r's TraceHeader ID —
// or a freshly minted one — when tr is enabled.
func OpenRequest(r *http.Request, tr *Tracer, metricsOn bool) *TraceCtx {
	if !metricsOn && !tr.Enabled() {
		return nil
	}
	var id uint64
	if tr.Enabled() {
		if hid, ok := ParseTraceID(r.Header.Get(TraceHeader)); ok {
			id = hid
		} else {
			id = NewTraceID()
		}
	}
	return NewTraceCtx(id)
}

// Span is one timed stage of a request, relative to its trace start.
type Span struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// TraceCtx accumulates one request's spans. Nil-safe: a nil ctx makes
// every method a no-op, so instrumented paths run untraced for free.
// Span recording is mutex-guarded — halo fetches to different peers land
// spans concurrently.
type TraceCtx struct {
	id    uint64
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTraceCtx opens a trace context. id may be zero (stage timing without
// cross-rank attribution — the metrics-only mode).
func NewTraceCtx(id uint64) *TraceCtx {
	return &TraceCtx{id: id, start: time.Now()}
}

// ID returns the trace ID (0 when nil or untraced).
func (t *TraceCtx) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Start returns the trace's start time (zero when nil).
func (t *TraceCtx) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// StartSpan opens a named stage and returns its closer; call the closer
// when the stage ends. Usage: defer tc.StartSpan("gather")().
func (t *TraceCtx) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	s0 := time.Now()
	return func() { t.AddSpanAt(name, s0, time.Since(s0)) }
}

// AddSpanAt records a stage that started at s0 and ran for d.
func (t *TraceCtx) AddSpanAt(name string, s0 time.Time, d time.Duration) {
	if t == nil {
		return
	}
	sp := Span{Name: name, StartUs: s0.Sub(t.start).Microseconds(), DurUs: d.Microseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Merge appends other's spans, re-based onto this trace's clock — the
// coalescer uses it to copy batch-level stage timings into every member
// request's trace.
func (t *TraceCtx) Merge(other *TraceCtx) {
	if t == nil || other == nil {
		return
	}
	offset := other.start.Sub(t.start).Microseconds()
	other.mu.Lock()
	spans := append([]Span(nil), other.spans...)
	other.mu.Unlock()
	t.mu.Lock()
	for _, sp := range spans {
		sp.StartUs += offset
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *TraceCtx) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Trace is one finished request record — what the ring holds and the slow
// log emits.
type Trace struct {
	TraceID  string `json:"trace_id"`
	Role     string `json:"role"` // "frontend", "server", "halo"
	Rank     int    `json:"rank"`
	Endpoint string `json:"endpoint"`
	Vertex   int64  `json:"vertex"`
	Peer     int    `json:"peer"` // requesting rank for halo records; -1 otherwise
	Status   int    `json:"status"`
	StartNs  int64  `json:"start_unix_ns"`
	DurUs    int64  `json:"dur_us"`
	Spans    []Span `json:"spans,omitempty"`
}

// TracerConfig configures one rank's tracer.
type TracerConfig struct {
	// Role and Rank stamp every record ("frontend" uses Rank -1).
	Role string
	Rank int
	// RingSize bounds the recent-trace ring (default 256).
	RingSize int
	// SlowLog receives JSONL records for requests slower than
	// SlowThreshold; nil disables the slow log.
	SlowLog io.Writer
	// SlowThreshold gates the slow log (0 logs every finished trace —
	// useful in smokes; production sets a tail threshold).
	SlowThreshold time.Duration
	// SampleEvery emits only every Nth slow record (default 1 = all).
	SampleEvery int
}

// Tracer owns a rank's finished-trace ring and slow log. Nil-safe: a nil
// tracer disables tracing with zero cost at every call site.
type Tracer struct {
	cfg TracerConfig

	mu   sync.Mutex
	ring []Trace
	next int

	logMu   sync.Mutex
	slowSeq int64
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	return &Tracer{cfg: cfg, ring: make([]Trace, 0, cfg.RingSize)}
}

// Enabled reports whether tracing is live (false for nil).
func (tr *Tracer) Enabled() bool { return tr != nil }

// Finish completes tc into a Trace record and stores it: ring always,
// slow log when the total duration crosses the threshold.
func (tr *Tracer) Finish(tc *TraceCtx, endpoint string, vertex int64, status int) {
	if tr == nil || tc == nil {
		return
	}
	d := time.Since(tc.start)
	tr.Record(Trace{
		TraceID:  FormatTraceID(tc.ID()),
		Endpoint: endpoint,
		Vertex:   vertex,
		Peer:     -1,
		Status:   status,
		StartNs:  tc.start.UnixNano(),
		DurUs:    d.Microseconds(),
		Spans:    tc.Spans(),
	})
}

// Record stores a finished trace record, stamping Role/Rank.
func (tr *Tracer) Record(rec Trace) {
	if tr == nil {
		return
	}
	rec.Role = tr.cfg.Role
	rec.Rank = tr.cfg.Rank
	tr.mu.Lock()
	if len(tr.ring) < tr.cfg.RingSize {
		tr.ring = append(tr.ring, rec)
	} else {
		tr.ring[tr.next] = rec
	}
	tr.next = (tr.next + 1) % tr.cfg.RingSize
	tr.mu.Unlock()

	if tr.cfg.SlowLog != nil && time.Duration(rec.DurUs)*time.Microsecond >= tr.cfg.SlowThreshold {
		tr.logMu.Lock()
		tr.slowSeq++
		emit := tr.slowSeq%int64(tr.cfg.SampleEvery) == 0
		if emit {
			b, err := json.Marshal(rec)
			if err == nil {
				b = append(b, '\n')
				tr.cfg.SlowLog.Write(b)
			}
		}
		tr.logMu.Unlock()
	}
}

// Recent returns up to n most-recent traces, newest last.
func (tr *Tracer) Recent(n int) []Trace {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	size := len(tr.ring)
	if n > size {
		n = size
	}
	out := make([]Trace, 0, n)
	// Oldest-to-newest order: the ring cursor points at the oldest slot
	// once full; before that the slice itself is in insertion order.
	start := 0
	if size == tr.cfg.RingSize {
		start = tr.next
	}
	for i := size - n; i < size; i++ {
		out = append(out, tr.ring[(start+i)%size])
	}
	return out
}

// Handler serves GET /debug/trace/recent?n=64 as a JSON array. A nil
// tracer serves 404.
func (tr *Tracer) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if tr == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		n := 64
		if raw := req.URL.Query().Get("n"); raw != "" {
			if v, err := strconv.Atoi(raw); err == nil && v > 0 {
				n = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		traces := tr.Recent(n)
		if traces == nil {
			traces = []Trace{}
		}
		json.NewEncoder(w).Encode(traces)
	}
}
