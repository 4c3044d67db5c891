package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/featstore"
	"distgnn/internal/obs"
)

// metrics.go maps the serving layer onto the obs plane: request/stage
// latency histograms fed from trace spans, scrape-time func metrics over
// the counters the serving structs already keep (so the hot path pays
// nothing beyond the span clock reads), and the shared /healthz payload.

// requireGET guards the read-only endpoints: anything but GET or HEAD is
// answered with 405 and an Allow header.
func requireGET(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET")
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s allows only GET", r.URL.Path))
		return false
	}
	return true
}

// Healthz is the /healthz payload: liveness plus build and fleet identity,
// so a prober (or a human with curl) can tell which binary and which rank
// answered. The replica frontend's health sweep checks only the status
// code, so the payload shape is free to grow.
type Healthz struct {
	Status        string `json:"status"`
	Role          string `json:"role"`
	Module        string `json:"module"`
	ModuleVersion string `json:"module_version"`
	GoVersion     string `json:"go_version"`
	// Rank/Shards identify this process's slice of a sharded fleet
	// (-1/1 for a single-process server, -1/0 for the frontend).
	Rank   int `json:"rank"`
	Shards int `json:"shards"`
	// Groups is the frontend's shard-group count (0 on servers).
	Groups int `json:"groups,omitempty"`
	// Model/Mode describe the serving engine (empty on the frontend).
	Model string `json:"model,omitempty"`
	Mode  string `json:"mode,omitempty"`
}

// serveMetrics holds the histogram legs of the server's /metrics: one
// duration histogram per endpoint and one per pipeline stage, fed by the
// spans a finished request's TraceCtx accumulated.
type serveMetrics struct {
	reqDur map[string]*obs.Histogram
	stage  map[string]*obs.Histogram
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	m := &serveMetrics{
		reqDur: map[string]*obs.Histogram{},
		stage:  map[string]*obs.Histogram{},
	}
	for _, ep := range []string{"predict", "embed"} {
		m.reqDur[ep] = reg.Histogram(
			obs.Label("distgnn_serve_request_duration_seconds", "endpoint", ep),
			"End-to-end request latency by endpoint.")
	}
	for _, st := range []string{"queue_wait", "sample", "gather", "halo_rtt", "forward", "encode"} {
		m.stage[st] = reg.Histogram(
			obs.Label("distgnn_serve_stage_duration_seconds", "stage", st),
			"Request latency by pipeline stage.")
	}
	return m
}

// observe folds one finished request into the histograms: total duration by
// endpoint, span durations by stage (per-peer halo RTT spans collapse into
// the one halo_rtt series).
func (m *serveMetrics) observe(endpoint string, tc *obs.TraceCtx) {
	if m == nil || tc == nil {
		return
	}
	if h, ok := m.reqDur[endpoint]; ok {
		h.Observe(time.Since(tc.Start()))
	}
	for _, sp := range tc.Spans() {
		name := sp.Name
		if strings.HasPrefix(name, "halo_rtt_rank") {
			name = "halo_rtt"
		}
		if h, ok := m.stage[name]; ok {
			h.Observe(time.Duration(sp.DurUs) * time.Microsecond)
		}
	}
}

// counterFn registers one scrape-time counter over an existing atomic.
func counterFn(reg *obs.Registry, name, help string, fn func() int64) {
	reg.CounterFunc(name, help, func() float64 { return float64(fn()) })
}

func gaugeFn(reg *obs.Registry, name, help string, fn func() int64) {
	reg.GaugeFunc(name, help, func() float64 { return float64(fn()) })
}

// registerCacheMetrics exposes one cache's counters under a shared metric
// family, distinguished by the cache label.
func registerCacheMetrics(reg *obs.Registry, cache string, stats func() featstore.CacheStats) {
	counterFn(reg, obs.Label("distgnn_cache_hits_total", "cache", cache),
		"Cache hits by cache.", func() int64 { return stats().Hits })
	counterFn(reg, obs.Label("distgnn_cache_misses_total", "cache", cache),
		"Cache misses by cache.", func() int64 { return stats().Misses })
	counterFn(reg, obs.Label("distgnn_cache_evictions_total", "cache", cache),
		"Cache evictions by cache.", func() int64 { return stats().Evictions })
	gaugeFn(reg, obs.Label("distgnn_cache_entries", "cache", cache),
		"Resident cache entries by cache.", func() int64 { return int64(stats().Entries) })
	gaugeFn(reg, obs.Label("distgnn_cache_used_bytes", "cache", cache),
		"Resident cache bytes by cache.", func() int64 { return stats().UsedBytes })
}

// registerMetrics wires the server's counters into the registry as
// scrape-time funcs. Called once from newServer; shard-mode extras are
// registered by NewShard after the shard state exists.
func (s *Server) registerMetrics(reg *obs.Registry) {
	counterFn(reg, "distgnn_serve_predicts_total",
		"Predict requests served locally.", s.predicts.Load)
	counterFn(reg, "distgnn_serve_embeds_total",
		"Embed requests served locally.", s.embeds.Load)
	counterFn(reg, "distgnn_serve_reloads_total",
		"Checkpoint hot-reloads applied.", s.reloads.Load)

	counterFn(reg, "distgnn_coalescer_requests_total",
		"Requests admitted by the coalescer.", func() int64 { return s.co.Stats().Requests })
	counterFn(reg, "distgnn_coalescer_batches_total",
		"Micro-batches executed.", func() int64 { return s.co.Stats().Batches })
	counterFn(reg, "distgnn_coalescer_dedup_saved_total",
		"Duplicate vertices removed before inference.", func() int64 { return s.co.Stats().DedupSaved })
	counterFn(reg, "distgnn_coalescer_shed_total",
		"Requests shed by admission control (429s).", func() int64 { return s.co.Stats().Shed })
	gaugeFn(reg, "distgnn_coalescer_pending",
		"Admitted-but-unanswered request depth.", func() int64 { return s.co.Stats().Pending })

	counterFn(reg, "distgnn_engine_inferences_total",
		"Engine invocations (one per micro-batch).",
		func() int64 { return s.engine.Load().Stats().Inferences })
	counterFn(reg, "distgnn_engine_seed_vertices_total",
		"Seed vertices inferred.",
		func() int64 { return s.engine.Load().Stats().SeedVertices })
	counterFn(reg, "distgnn_engine_frontier_vertices_total",
		"Input-frontier vertices gathered.",
		func() int64 { return s.engine.Load().Stats().InputFrontierVertices })

	registerCacheMetrics(reg, "embedding", s.emb.Stats)
	registerCacheMetrics(reg, "feature", func() featstore.CacheStats { return s.engine.Load().FeatureCacheStats() })
}

// registerShardMetrics adds the shard-mode counters: routing traffic, the
// halo-fetch plane, and transport byte totals by plane when the fabric
// exposes them.
func (s *Server) registerShardMetrics(reg *obs.Registry) {
	st := s.shard
	counterFn(reg, "distgnn_halo_hits_total",
		"Halo lookups served from the remote cache.", func() int64 { return st.fs.Stats().HaloHits })
	counterFn(reg, "distgnn_halo_misses_total",
		"Halo lookups fetched over the fabric.", func() int64 { return st.fs.Stats().HaloMisses })
	counterFn(reg, "distgnn_halo_fetches_total",
		"Halo fetch RPCs issued.", func() int64 { return st.fs.Stats().HaloFetches })
	counterFn(reg, "distgnn_halo_fetched_vertices_total",
		"Vertex rows fetched from peers.", func() int64 { return st.fs.Stats().HaloFetchedVertices })
	counterFn(reg, "distgnn_halo_fetched_bytes_total",
		"Feature bytes fetched from peers.", func() int64 { return st.fs.Stats().HaloFetchedBytes })
	counterFn(reg, "distgnn_halo_served_fetches_total",
		"Fetch RPCs answered for peers.", func() int64 { return st.fs.Stats().PeerServedFetches })
	counterFn(reg, "distgnn_halo_served_vertices_total",
		"Vertex rows served to peers.", func() int64 { return st.fs.Stats().PeerServedVertices })
	counterFn(reg, "distgnn_halo_served_bytes_total",
		"Feature bytes served to peers.", func() int64 { return st.fs.Stats().PeerServedBytes })
	registerCacheMetrics(reg, "remote", func() featstore.CacheStats { return st.fs.Stats().RemoteCache })
	if st.net != nil {
		registerNetMetrics(reg, st.net)
	}
}

// registerNetMetrics exposes a transport's payload byte counters.
func registerNetMetrics(reg *obs.Registry, src comm.NetStatsSource) {
	counterFn(reg, "distgnn_net_sent_bytes_total",
		"Payload bytes sent on the comm fabric.", func() int64 { return src.NetStats().SentBytes })
	counterFn(reg, "distgnn_net_recv_bytes_total",
		"Payload bytes received on the comm fabric.", func() int64 { return src.NetStats().RecvBytes })
	counterFn(reg, obs.Label("distgnn_net_plane_sent_bytes_total", "plane", "collective"),
		"Sent payload bytes by traffic plane.", func() int64 { return src.NetStats().CollectiveBytes })
	counterFn(reg, obs.Label("distgnn_net_plane_sent_bytes_total", "plane", "p2p"),
		"Sent payload bytes by traffic plane.", func() int64 { return src.NetStats().P2PBytes })
	counterFn(reg, obs.Label("distgnn_net_plane_sent_bytes_total", "plane", "serve"),
		"Sent payload bytes by traffic plane.", func() int64 { return src.NetStats().ServeBytes })
}
