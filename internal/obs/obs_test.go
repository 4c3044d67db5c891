package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilPlaneIsFree pins the disabled contract: nil registry, nil
// handles, nil tracer, nil trace contexts, and a nil event log all accept
// every call without effect (and without panicking).
func TestNilPlaneIsFree(t *testing.T) {
	var r *Registry
	h := r.Histogram("x_seconds", "")
	r.CounterFunc("f_total", "", func() float64 { return 1 })
	r.GaugeFunc("f", "", func() float64 { return 1 })
	h.Observe(time.Millisecond)
	if h.Count() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v len=%d", err, buf.Len())
	}

	var tr *Tracer
	var tc *TraceCtx
	tc.StartSpan("s")()
	tc.AddSpanAt("s", time.Now(), time.Millisecond)
	tc.Merge(NewTraceCtx(1))
	if tc.ID() != 0 || tc.Spans() != nil {
		t.Fatal("nil TraceCtx must read as empty")
	}
	tr.Finish(NewTraceCtx(1), "predict", 0, 200)
	tr.Record(Trace{})
	if tr.Recent(10) != nil || tr.Enabled() {
		t.Fatal("nil tracer must be inert")
	}

	var l *EventLog
	l.Emit("epoch", map[string]any{"loss": 1.0})
	if NewEventLog(nil) != nil {
		t.Fatal("NewEventLog(nil) must return nil")
	}

	// Free also means no allocation: with obs off, the serving hot path
	// makes these calls on every request.
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(time.Millisecond)
		tc.StartSpan("s")()
		tc.AddSpanAt("s", time.Time{}, time.Millisecond)
		tr.Finish(tc, "predict", 0, 200)
	}); n != 0 {
		t.Fatalf("nil obs handles allocate %.0f times per call set, want 0", n)
	}
}

// TestCounterGaugeHistogram exercises the live paths: counter and gauge
// funcs read at exposition, where re-registration keeps the first, and
// the histogram's hot path, where it returns the same handle.
func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	var reqs, depth float64
	r.CounterFunc("reqs_total", "requests", func() float64 { return reqs })
	r.CounterFunc("reqs_total", "requests", func() float64 { return -1 })
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	reqs, depth = 3, 5
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reqs_total 3\n", "depth 5\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	h := r.Histogram("lat_seconds", "latency")
	if again := r.Histogram("lat_seconds", "latency"); again != h {
		t.Fatal("re-registration must return the same histogram")
	}
	for _, d := range []time.Duration{time.Microsecond, 3 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, time.Second} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
}

// TestPrometheusExposition pins the text format shape: HELP/TYPE headers
// shared across label variants, cumulative histogram buckets, _sum/_count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc(Label("hits_total", "cache", "feature"), "cache hits", func() float64 { return 4 })
	r.CounterFunc(Label("hits_total", "cache", "embed"), "cache hits", func() float64 { return 1 })
	h := r.Histogram(Label("stage_seconds", "stage", "gather"), "stage latency")
	h.Observe(2 * time.Microsecond)
	h.Observe(100 * time.Millisecond)
	r.GaugeFunc("uptime_seconds", "uptime", func() float64 { return 1.5 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE hits_total counter",
		`hits_total{cache="embed"} 1`,
		`hits_total{cache="feature"} 4`,
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="gather",le="+Inf"} 2`,
		`stage_seconds_count{stage="gather"} 2`,
		"# TYPE uptime_seconds gauge",
		"uptime_seconds 1.5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// One TYPE header per base name even with two label variants.
	if strings.Count(text, "# TYPE hits_total") != 1 {
		t.Fatalf("label variants must share one TYPE header:\n%s", text)
	}
	// Buckets must be cumulative: the +Inf bucket equals the count.
	if !strings.Contains(text, `stage_seconds_bucket{stage="gather",le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket must equal count:\n%s", text)
	}
}

// TestTraceIDs pins mint/format/parse round trips and uniqueness.
func TestTraceIDs(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID minted")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %x", id)
		}
		seen[id] = true
		back, ok := ParseTraceID(FormatTraceID(id))
		if !ok || back != id {
			t.Fatalf("round trip %x -> %q -> %x ok=%v", id, FormatTraceID(id), back, ok)
		}
	}
	if _, ok := ParseTraceID("nothex"); ok {
		t.Fatal("malformed ID parsed")
	}
	if _, ok := ParseTraceID("0"); ok {
		t.Fatal("zero ID must not parse as traced")
	}
}

// TestTracerRingAndSlowLog drives Finish through the ring and the
// threshold-gated slow log.
func TestTracerRingAndSlowLog(t *testing.T) {
	var slow bytes.Buffer
	tr := NewTracer(TracerConfig{Role: "server", Rank: 1, RingSize: 4,
		SlowLog: &slow, SlowThreshold: 0})
	for i := 0; i < 6; i++ {
		tc := NewTraceCtx(NewTraceID())
		done := tc.StartSpan("gather")
		done()
		tr.Finish(tc, "predict", int64(i), 200)
	}
	recent := tr.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("ring kept %d, want 4", len(recent))
	}
	// Newest-last ordering: the last record is vertex 5.
	if recent[len(recent)-1].Vertex != 5 {
		t.Fatalf("recent order wrong: %+v", recent)
	}
	for _, rec := range recent {
		if rec.Role != "server" || rec.Rank != 1 {
			t.Fatalf("record not stamped: %+v", rec)
		}
		if len(rec.Spans) != 1 || rec.Spans[0].Name != "gather" {
			t.Fatalf("spans not captured: %+v", rec)
		}
	}
	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("slow log lines = %d, want 6 (threshold 0 logs all)", len(lines))
	}
	var rec Trace
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow log is not JSONL: %v", err)
	}
	if _, ok := ParseTraceID(rec.TraceID); !ok {
		t.Fatalf("slow log trace ID %q malformed", rec.TraceID)
	}

	// Threshold gating: a high threshold suppresses fast requests.
	var slow2 bytes.Buffer
	tr2 := NewTracer(TracerConfig{RingSize: 4, SlowLog: &slow2, SlowThreshold: time.Hour})
	tr2.Finish(NewTraceCtx(NewTraceID()), "predict", 0, 200)
	if slow2.Len() != 0 {
		t.Fatal("fast request leaked into slow log")
	}
}

// TestTraceCtxMerge pins the batch→member span copy the coalescer relies
// on: merged spans are re-based onto the member's clock.
func TestTraceCtxMerge(t *testing.T) {
	member := NewTraceCtx(NewTraceID())
	time.Sleep(2 * time.Millisecond)
	batch := NewTraceCtx(0)
	batch.AddSpanAt("gather", batch.start, 3*time.Millisecond)
	member.Merge(batch)
	spans := member.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].StartUs < 1000 {
		t.Fatalf("merged span not re-based: start %dus", spans[0].StartUs)
	}
	if spans[0].DurUs < 2900 {
		t.Fatalf("merged span duration lost: %dus", spans[0].DurUs)
	}
}

// TestTraceHandler pins the /debug/trace/recent endpoint: JSON array,
// ?n= clamping, 405 on non-GET, 404 when disabled.
func TestTraceHandler(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 8})
	for i := 0; i < 3; i++ {
		tr.Finish(NewTraceCtx(NewTraceID()), "predict", int64(i), 200)
	}
	rec := httptest.NewRecorder()
	tr.Handler()(rec, httptest.NewRequest("GET", "/debug/trace/recent?n=2", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var traces []Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("n=2 returned %d traces", len(traces))
	}

	rec = httptest.NewRecorder()
	tr.Handler()(rec, httptest.NewRequest("POST", "/debug/trace/recent", nil))
	if rec.Code != 405 {
		t.Fatalf("non-GET status %d, want 405", rec.Code)
	}

	var nilTr *Tracer
	rec = httptest.NewRecorder()
	nilTr.Handler()(rec, httptest.NewRequest("GET", "/debug/trace/recent", nil))
	if rec.Code != 404 {
		t.Fatalf("disabled tracer status %d, want 404", rec.Code)
	}
}

// TestMetricsHandler pins /metrics semantics: exposition on GET, 405
// otherwise, 404 when disabled.
func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x_total", "help", func() float64 { return 1 })
	rec := httptest.NewRecorder()
	r.Handler()(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("status %d body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	rec = httptest.NewRecorder()
	r.Handler()(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("non-GET status %d, want 405", rec.Code)
	}
	var nilReg *Registry
	rec = httptest.NewRecorder()
	nilReg.Handler()(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 404 {
		t.Fatalf("disabled status %d, want 404", rec.Code)
	}
}

// TestRegistryConcurrency hammers registration and observation from many
// goroutines while exposition runs — the lock-cheap claim under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("shared_seconds", "")
			for i := 0; i < 500; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					r.GaugeFunc(fmt.Sprintf("per_worker_%d", w), "", func() float64 { return float64(w) })
					var buf bytes.Buffer
					r.WritePrometheus(&buf)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Histogram("shared_seconds", "").Count(); got != 4000 {
		t.Fatalf("shared histogram count = %d, want 4000", got)
	}
}

// TestEventLog pins the JSONL event shape and bit-pattern helper.
func TestEventLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Emit("epoch", map[string]any{"epoch": 1, "loss": 0.5, "loss_bits": F64Bits(0.5)})
	l.Emit("done", nil)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["event"] != "epoch" || ev["loss_bits"] != "0x3fe0000000000000" {
		t.Fatalf("event = %v", ev)
	}
	if _, ok := ev["ts_unix_ns"]; !ok {
		t.Fatal("missing timestamp")
	}
}
