package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/nn"
	"distgnn/internal/obs"
	"distgnn/internal/tensor"
)

// Config configures a serving instance.
type Config struct {
	// Arch, Hidden, NumLayers, NumHeads must describe the checkpoint being
	// loaded; New fails fast on any mismatch. Arch defaults to graphsage,
	// NumLayers to 3 and Hidden to 64 — distgnn-train's defaults.
	Arch      Arch
	Hidden    int
	NumLayers int
	NumHeads  int
	// OutDim overrides the output width when the checkpoint's differs from
	// the dataset's class count — e.g. a multi-head GAT trained with the
	// class count padded up to a NumHeads multiple. 0 means NumClasses.
	OutDim int
	// Fanouts selects sampled inference (one entry per layer); empty means
	// exact full-neighborhood inference.
	Fanouts []int
	// MaxBatch and MaxWait shape the request coalescer, which is
	// work-conserving: a request that finds no batch running starts one at
	// once with whatever is already queued. While a batch runs, the next
	// one closes at MaxBatch requests, after MaxWait, or when a running
	// batch finishes, whichever comes first — MaxWait is the longest a
	// request waits for batch mates while a batch is in flight.
	// MaxBatch ≤ 1 disables coalescing.
	MaxBatch int
	MaxWait  time.Duration
	// MaxPending bounds the admitted-but-unanswered request depth; beyond
	// it /predict and /embed shed load with 429 + Retry-After instead of
	// queueing without bound. ≤ 0 disables admission control.
	MaxPending int
	// EnableReload exposes POST /reload: atomically hot-swap the engine to
	// a new checkpoint (build-validate-flip; in-flight requests finish on
	// the old engine). Off by default — reloading reads server-side files.
	EnableReload bool
	// EnableUpdates exposes POST /update: streaming edge inserts applied to
	// an epoch-versioned mutation layer over the dataset CSR, with the
	// affected k-hop fan-out invalidated in the feature and embedding
	// caches. Exact-mode only (sampled inference has no bit-identity
	// contract to preserve). Off by default — the graph stays frozen.
	EnableUpdates bool
	// CompactThreshold is the overlay size (edges) past which an update
	// triggers a background compaction into a fresh base CSR. 0 selects
	// the default (4096); negative disables automatic compaction.
	CompactThreshold int
	// FeatureCacheBytes budgets the gathered-input-feature cache;
	// EmbedCacheBytes budgets the final-layer embedding cache. ≤ 0
	// disables the respective cache.
	FeatureCacheBytes int64
	EmbedCacheBytes   int64
	// Metrics, when set, registers the serving metrics on the registry and
	// enables GET /metrics (Prometheus text exposition). Nil runs
	// metrics-free — the obs plane's disabled-is-free contract.
	Metrics *obs.Registry
	// Tracer, when set, enables per-request tracing: stage spans, the
	// recent-trace ring behind GET /debug/trace/recent, the slow-request
	// log, and cross-rank trace-ID propagation. Nil disables tracing.
	Tracer *obs.Tracer
}

// applyDefaults fills the zero-value Config fields with distgnn-train's
// defaults.
func (cfg *Config) applyDefaults() {
	if cfg.Arch == "" {
		cfg.Arch = ArchGraphSAGE
	}
	if cfg.NumLayers == 0 {
		cfg.NumLayers = 3
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 64
	}
}

// Server is the HTTP inference front end: /predict, /embed, /stats,
// /healthz. In shard mode (NewShard) it answers any vertex, fetching the
// halo features it does not own from the other ranks.
type Server struct {
	// engine is behind an atomic pointer so /reload can hot-swap it while
	// requests are in flight: readers load once per operation and finish on
	// whichever engine they loaded.
	engine atomic.Pointer[Engine]
	co     *Coalescer
	emb    *featstore.Cache[int32, []float32]
	cfg    Config
	mux    *http.ServeMux
	start  time.Time
	shard  *shardState   // nil in single-process mode
	upd    *updateState  // nil when updates are disabled
	obsm   *serveMetrics // nil when metrics are off
	tracer *obs.Tracer   // nil-safe: nil disables tracing

	reloadMu sync.Mutex // serializes build-validate-flip sequences

	predicts atomic.Int64
	embeds   atomic.Int64
	reloads  atomic.Int64
}

// New loads the checkpoint into a forward-only model described by cfg and
// assembles the serving pipeline.
func New(ds *datasets.Dataset, checkpoint io.Reader, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if cfg.EnableUpdates && len(cfg.Fanouts) > 0 {
		return nil, fmt.Errorf("serve: streaming updates are exact-mode only (drop -fanouts)")
	}
	eng, err := loadEngine(ds, checkpoint, cfg, cfg.Fanouts, cfg.FeatureCacheBytes)
	if err != nil {
		return nil, err
	}
	return newServer(eng, cfg), nil
}

// loadEngine builds cfg's model over ds and loads the checkpoint into it. A
// checkpoint whose parameter names or shapes disagree with the requested
// arch/dims fails immediately with a descriptive error rather than serving
// garbage.
func loadEngine(ds *datasets.Dataset, checkpoint io.Reader, cfg Config, fanouts []int, cacheBytes int64) (*Engine, error) {
	eng, err := NewEngine(ds, ModelSpec{
		Arch: cfg.Arch, Hidden: cfg.Hidden, OutDim: cfg.OutDim,
		NumLayers: cfg.NumLayers, NumHeads: cfg.NumHeads,
	}, fanouts, cacheBytes)
	if err != nil {
		return nil, err
	}
	if err := nn.ReadParams(checkpoint, eng.Params()); err != nil {
		return nil, fmt.Errorf("serve: checkpoint does not match requested model %s: %w "+
			"(distgnn-train prints the hyperparameters next to \"checkpoint written\" — pass the same -arch/-hidden/-layers/-heads here)",
			eng.Spec(), err)
	}
	return eng, nil
}

// newServer assembles the HTTP pipeline around a ready engine.
func newServer(eng *Engine, cfg Config) *Server {
	s := &Server{
		emb:    featstore.NewCache[int32, []float32](cfg.EmbedCacheBytes, 0),
		cfg:    cfg,
		mux:    http.NewServeMux(),
		start:  time.Now(),
		tracer: cfg.Tracer,
	}
	s.engine.Store(eng)
	if cfg.EnableUpdates {
		s.upd = newUpdateState(eng, cfg)
	}
	s.co = NewCoalescer(s.inferAndCache, cfg.MaxBatch, cfg.MaxWait, cfg.MaxPending)
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("/embed", s.handleEmbed)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	// Both handlers are nil-safe: with the plane off they serve 404.
	s.mux.HandleFunc("/metrics", cfg.Metrics.Handler())
	s.mux.HandleFunc("/debug/trace/recent", cfg.Tracer.Handler())
	if cfg.Metrics != nil {
		s.obsm = newServeMetrics(cfg.Metrics)
		s.registerMetrics(cfg.Metrics)
		if s.upd != nil {
			s.registerStreamMetrics(cfg.Metrics)
		}
	}
	return s
}

// handleHealthz answers the liveness probe with build info and fleet
// identity (JSON; probers only check the status code).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	bi := obs.ReadBuildInfo()
	eng := s.engine.Load()
	h := Healthz{
		Status: "ok", Role: "server",
		Module: bi.Module, ModuleVersion: bi.ModuleVersion, GoVersion: bi.GoVersion,
		Rank: -1, Shards: 1,
		Model: eng.Spec().String(), Mode: eng.Mode(),
	}
	if s.shard != nil {
		h.Rank = s.shard.fs.Rank()
		h.Shards = s.shard.fs.Shards()
	}
	writeJSON(w, h)
}

// Engine exposes the current inference engine (benchmarks and tests).
func (s *Server) Engine() *Engine { return s.engine.Load() }

// Handler returns the HTTP handler for all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the request coalescer and, in shard mode, the halo-fetch
// endpoint. The comm transport stays owned by the caller.
func (s *Server) Close() {
	s.co.Close()
	if s.shard != nil {
		s.shard.fs.Close()
	}
}

// inferAndCache is the coalescer's batch function: one engine pass, then
// the final-layer rows are published to the embedding cache so later
// requests for the same vertices short-circuit inference entirely. The
// engine is loaded once: a batch in flight across a /reload finishes on
// the engine it started with, and its rows are not published if the flip
// (and the cache reset that follows it) happened underneath. With updates
// enabled the same guard extends to the topology: rows are published only
// under the updater's read lock with the snapshot epoch unchanged since
// before inference, so a batch computed on a pre-update graph can never
// land in the cache after that update's invalidation sweep.
func (s *Server) inferAndCache(vertices []int32, bt *obs.TraceCtx) (*tensor.Matrix, error) {
	eng := s.engine.Load()
	var epoch uint64
	if s.upd != nil {
		epoch = s.upd.mut.Snapshot().Epoch()
	}
	out, err := eng.InferTraced(vertices, bt)
	if err != nil {
		return nil, err
	}
	publish := func() {
		if s.engine.Load() != eng {
			return
		}
		for i, v := range vertices {
			row := append([]float32(nil), out.Row(i)...)
			s.emb.Put(v, row, 4*len(row))
		}
	}
	if s.upd == nil {
		publish()
		return out, nil
	}
	s.upd.mu.RLock()
	if s.upd.mut.Snapshot().Epoch() == epoch {
		publish()
	}
	s.upd.mu.RUnlock()
	return out, nil
}

// Reload hot-swaps the serving engine to a new checkpoint: a fresh engine
// is built against the same spec and validated (parameter names/shapes,
// finite probe inference) before a single atomic pointer flip makes it
// live; any failure leaves the old engine serving untouched. In-flight
// batches finish on the engine they loaded, and the embedding cache is
// reset at the flip so the new model never serves the old model's rows.
// The raw-feature caches survive — input features are model-independent.
func (s *Server) Reload(checkpoint io.Reader) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.engine.Load()
	spec := old.Spec()
	// Adopt the old engine's resident feature store: sharing keeps the
	// swap allocation-light.
	eng, err := NewEngine(old.ds, spec, s.cfg.Fanouts, 0)
	if err != nil {
		return fmt.Errorf("serve: reload: %w", err)
	}
	eng.feats = old.feats
	eng.feat = old.feat
	eng.gather = old.gather
	eng.mut = old.mut
	if err := nn.ReadParams(checkpoint, eng.Params()); err != nil {
		return fmt.Errorf("serve: reload checkpoint does not match serving model %s: %w", spec, err)
	}
	if out, err := eng.Infer([]int32{0}); err != nil {
		return fmt.Errorf("serve: reload probe inference: %w", err)
	} else {
		for _, v := range out.Row(0) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("serve: reload probe produced non-finite logits — checkpoint rejected")
			}
		}
	}
	s.engine.Store(eng)
	s.emb.Reset()
	s.reloads.Add(1)
	return nil
}

// handleReload is POST /reload?checkpoint=PATH (or the checkpoint bytes as
// the request body). Gated by Config.EnableReload because the path form
// reads server-side files.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnableReload {
		httpError(w, http.StatusForbidden, fmt.Errorf("reload disabled (start with -reload)"))
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST /reload"))
		return
	}
	var src io.Reader = r.Body
	if path := r.URL.Query().Get("checkpoint"); path != "" {
		f, err := os.Open(path)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		defer f.Close()
		src = f
	}
	if err := s.Reload(src); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, map[string]any{
		"reloaded": true,
		"model":    s.engine.Load().Spec().String(),
		"reloads":  s.reloads.Load(),
	})
}

// lookup serves a vertex's final-layer output: embedding cache first, then
// the coalesced inference path.
func (s *Server) lookup(r *http.Request, vertex int32, tc *obs.TraceCtx) ([]float32, error) {
	if row, ok := s.emb.Get(vertex); ok {
		return row, nil
	}
	return s.co.Submit(r.Context(), vertex, tc)
}

// finishRequest closes out one request's observability: stage histograms
// and the trace record. No-op for untraced requests.
func (s *Server) finishRequest(tc *obs.TraceCtx, endpoint string, vertex int32, status int) {
	if tc == nil {
		return
	}
	s.obsm.observe(endpoint, tc)
	s.tracer.Finish(tc, endpoint, int64(vertex), status)
}

// PredictResponse is the /predict payload.
type PredictResponse struct {
	Vertex int32     `json:"vertex"`
	Class  int       `json:"class"`
	Logits []float32 `json:"logits"`
}

// EmbedResponse is the /embed payload.
type EmbedResponse struct {
	Vertex    int32     `json:"vertex"`
	Embedding []float32 `json:"embedding"`
}

// Stats is the /stats payload. Shard is present only in shard mode.
type Stats struct {
	UptimeSeconds  float64              `json:"uptime_seconds"`
	Arch           Arch                 `json:"arch"`
	Mode           string               `json:"mode"`
	Model          string               `json:"model"`
	Predicts       int64                `json:"predicts"`
	Embeds         int64                `json:"embeds"`
	Reloads        int64                `json:"reloads"`
	Coalescer      CoalescerStats       `json:"coalescer"`
	Engine         EngineStats          `json:"engine"`
	FeatureCache   featstore.CacheStats `json:"feature_cache"`
	EmbeddingCache featstore.CacheStats `json:"embedding_cache"`
	Shard          *ShardStats          `json:"shard,omitempty"`
	Stream         *StreamStats         `json:"stream,omitempty"`
}

// StatsSnapshot returns the same snapshot /stats serves.
func (s *Server) StatsSnapshot() Stats {
	eng := s.engine.Load()
	st := Stats{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Arch:           eng.Spec().Arch,
		Mode:           eng.Mode(),
		Model:          eng.Spec().String(),
		Predicts:       s.predicts.Load(),
		Embeds:         s.embeds.Load(),
		Reloads:        s.reloads.Load(),
		Coalescer:      s.co.Stats(),
		Engine:         eng.Stats(),
		FeatureCache:   eng.FeatureCacheStats(),
		EmbeddingCache: s.emb.Stats(),
	}
	if s.shard != nil {
		sh := s.shard.stats()
		st.Shard = &sh
	}
	if s.upd != nil {
		str := s.upd.streamStats()
		st.Stream = &str
	}
	return st
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	vertex, ok := s.vertexParam(w, r)
	if !ok {
		return
	}
	tc := obs.OpenRequest(r, s.tracer, s.obsm != nil)
	s.predicts.Add(1)
	row, err := s.lookup(r, vertex, tc)
	if err != nil {
		s.finishRequest(tc, "predict", vertex, lookupError(w, err))
		return
	}
	if id := tc.ID(); id != 0 {
		w.Header().Set(obs.TraceHeader, obs.FormatTraceID(id))
	}
	stop := tc.StartSpan("encode")
	writeJSON(w, PredictResponse{Vertex: vertex, Class: argmax(row), Logits: row})
	stop()
	s.finishRequest(tc, "predict", vertex, http.StatusOK)
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	vertex, ok := s.vertexParam(w, r)
	if !ok {
		return
	}
	tc := obs.OpenRequest(r, s.tracer, s.obsm != nil)
	s.embeds.Add(1)
	row, err := s.lookup(r, vertex, tc)
	if err != nil {
		s.finishRequest(tc, "embed", vertex, lookupError(w, err))
		return
	}
	if id := tc.ID(); id != 0 {
		w.Header().Set(obs.TraceHeader, obs.FormatTraceID(id))
	}
	stop := tc.StartSpan("encode")
	writeJSON(w, EmbedResponse{Vertex: vertex, Embedding: row})
	stop()
	s.finishRequest(tc, "embed", vertex, http.StatusOK)
}

// lookupError maps coalescer outcomes to HTTP semantics: saturation is the
// load-shedding signal (429 + Retry-After so clients and the replica
// frontend back off or fail over), shutdown is 503, anything else 500.
// It returns the status code written.
func lookupError(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return http.StatusTooManyRequests
	case errors.Is(err, ErrCoalescerClosed):
		httpError(w, http.StatusServiceUnavailable, err)
		return http.StatusServiceUnavailable
	default:
		httpError(w, http.StatusInternalServerError, err)
		return http.StatusInternalServerError
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	writeJSON(w, s.StatsSnapshot())
}

// vertexParam parses and range-checks the ?vertex= query parameter.
func (s *Server) vertexParam(w http.ResponseWriter, r *http.Request) (int32, bool) {
	raw := r.URL.Query().Get("vertex")
	if raw == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing ?vertex= parameter"))
		return 0, false
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad vertex %q: %v", raw, err))
		return 0, false
	}
	if n := s.engine.Load().topo().NumV(); v < 0 || int(v) >= n {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("vertex %d out of range [0,%d)", v, n))
		return 0, false
	}
	return int32(v), true
}

// argmax matches tensor.Matrix.ArgmaxRows: ties resolve to the lowest
// index.
func argmax(row []float32) int {
	best, bestJ := float32(-1), 0
	for j, v := range row {
		if j == 0 || v > best {
			best, bestJ = v, j
		}
	}
	return bestJ
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
