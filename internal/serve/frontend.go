package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distgnn/internal/obs"
)

// frontend.go is the replicated-serving entry point: a consistent-hash
// frontend over R-replica shard groups. The paper's partitioned-aggregation
// design assumes every rank is alive; this layer removes that assumption
// from the serving story. Vertices consistent-hash to a shard group (ring
// of virtual nodes keyed by the group's stable key, so assignment is
// permutation-invariant in the group list and removing a group moves only
// that group's arc). Within a group, requests load-balance across the R
// replicas with power-of-two-choices by in-flight depth; a replica that
// fails MaxFails consecutive requests is marked unhealthy and traffic
// retries the survivors, so a killed rank degrades throughput instead of
// erroring requests. A background prober restores health via /healthz.
// Backends that shed load (429) are retried on another replica; only when
// every replica sheds does the frontend return 429 + Retry-After to the
// client. POST /reload fans out to every replica so a whole fleet can
// hot-swap checkpoints through one endpoint.
//
// Replicas of one group are bit-identical engines (same checkpoint, same
// partition seed), so which replica answers never changes a logit bit —
// the conformance harness pins exact-mode responses through the frontend
// against the single-process reference across shard counts and R.

// Read limits: every body the frontend buffers is bounded, so one client
// or one misbehaving backend cannot make it allocate without limit.
const (
	// maxBackendBody caps a backend's /predict or /embed response: one
	// vertex's JSON row, a few KB at the in-repo model widths.
	maxBackendBody = 1 << 20
	// maxReloadBody caps an inbound POST /reload checkpoint. The largest
	// checkpoint the in-repo datasets produce at the trainer defaults
	// (reddit-sim GAT, hidden 64, 3 layers) is 44 KB; the same model at
	// hidden 1024 is 4.6 MB, so 16 MiB leaves room for much wider models.
	maxReloadBody = 16 << 20
	// maxReloadReply caps a backend's /reload reply, a short JSON receipt
	// or error line.
	maxReloadReply = 64 << 10
)

// readCapped buffers r and fails, rather than growing, once it exceeds
// limit bytes.
func readCapped(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(b)) > limit {
		err = fmt.Errorf("body exceeds %d bytes", limit)
	}
	return b, err
}

// GroupSpec names one shard group and its replica endpoints. Key is the
// group's stable hashing identity (assignment must not depend on list
// order or replica addresses); Replicas are the HTTP addresses of the R
// interchangeable servers for this group.
type GroupSpec struct {
	Key      string
	Replicas []string
}

// FrontendConfig configures the replicated-serving frontend.
type FrontendConfig struct {
	Groups []GroupSpec
	// VNodes is the virtual-node count per group on the hash ring
	// (default 64 — assignment balance within a few percent).
	VNodes int
	// MaxFails is the consecutive-failure threshold that marks a replica
	// unhealthy (default 3).
	MaxFails int
	// ProbeInterval paces the background /healthz prober that restores
	// unhealthy replicas (default 500ms). ≤ 0 uses the default; probing
	// cannot be disabled because passive failure marking alone would
	// strand a recovered replica.
	ProbeInterval time.Duration
	// ProxyTimeout bounds each backend attempt (default 15s).
	ProxyTimeout time.Duration
	// Seed seeds the power-of-two-choices randomness (default 1);
	// deterministic so test runs are reproducible.
	Seed int64
	// Metrics, when set, registers the frontend metrics on the registry and
	// enables GET /metrics. Nil runs metrics-free.
	Metrics *obs.Registry
	// Tracer, when set, mints a trace ID per proxied request (propagated to
	// backends via the trace header) and enables GET /debug/trace/recent
	// plus the slow-request log. Nil disables tracing.
	Tracer *obs.Tracer
}

func (cfg *FrontendConfig) applyDefaults() {
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.MaxFails <= 0 {
		cfg.MaxFails = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProxyTimeout <= 0 {
		cfg.ProxyTimeout = 15 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
}

// replica is one backend server: address plus the live load-balancing and
// health state the picker reads.
type replica struct {
	addr     string
	inflight atomic.Int64
	// consecFails counts failures since the last success; crossing
	// MaxFails flips healthy off. Any success or probe pass resets it.
	consecFails atomic.Int64
	healthy     atomic.Bool

	requests atomic.Int64
	fails    atomic.Int64
}

type replicaGroup struct {
	key      string
	replicas []*replica
}

// ringPoint is one virtual node: a hash position owned by a group.
type ringPoint struct {
	hash  uint64
	group int
}

// hashRing maps vertices to groups via consistent hashing: each group owns
// VNodes points derived from its key alone, so the mapping is invariant
// under group-list permutation and removing a group reassigns exactly the
// arcs that group owned.
type hashRing struct {
	points []ringPoint
}

func newHashRing(keys []string, vnodes int) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(keys)*vnodes)}
	for g, key := range keys {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", key, v)
			r.points = append(r.points, ringPoint{hash: h.Sum64(), group: g})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by group so the ring is a
		// deterministic function of the key set.
		return r.points[i].group < r.points[j].group
	})
	return r
}

// lookup returns the group owning vertex: the first ring point at or after
// the vertex's hash, wrapping at the top.
func (r *hashRing) lookup(vertex int32) int {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(vertex))
	h := fnv.New64a()
	h.Write(b[:])
	hv := h.Sum64()
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hv })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].group
}

// Frontend is the replicated-serving HTTP entry point. See the file
// comment for the routing/failover design.
type Frontend struct {
	cfg    FrontendConfig
	ring   *hashRing
	groups []*replicaGroup
	mux    *http.ServeMux
	client http.Client // over its own pool, so Close touches no other client's
	start  time.Time

	rngMu sync.Mutex
	rng   *rand.Rand

	quit    chan struct{}
	proberW sync.WaitGroup

	requests atomic.Int64
	retries  atomic.Int64
	shed     atomic.Int64
	errors   atomic.Int64
	reloads  atomic.Int64
	trips    atomic.Int64 // healthy→unhealthy breaker transitions

	reqDur *obs.Histogram // nil when metrics are off
	tracer *obs.Tracer    // nil-safe: nil disables tracing
}

// NewFrontend validates the group topology and starts the health prober.
// Every group must carry at least one replica; group keys must be unique.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	cfg.applyDefaults()
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("serve: frontend needs ≥1 shard group")
	}
	keys := make([]string, len(cfg.Groups))
	seen := map[string]bool{}
	f := &Frontend{
		cfg: cfg,
		mux: http.NewServeMux(),
		client: http.Client{
			Timeout:   cfg.ProxyTimeout,
			Transport: &http.Transport{IdleConnTimeout: 90 * time.Second},
		},
		start: time.Now(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		quit:  make(chan struct{}),
	}
	for g, spec := range cfg.Groups {
		if spec.Key == "" {
			return nil, fmt.Errorf("serve: frontend group %d has no key", g)
		}
		if seen[spec.Key] {
			return nil, fmt.Errorf("serve: duplicate frontend group key %q", spec.Key)
		}
		seen[spec.Key] = true
		if len(spec.Replicas) == 0 {
			return nil, fmt.Errorf("serve: frontend group %q has no replicas", spec.Key)
		}
		keys[g] = spec.Key
		rg := &replicaGroup{key: spec.Key}
		for _, addr := range spec.Replicas {
			r := &replica{addr: normalizeAddr(addr)}
			r.healthy.Store(true)
			rg.replicas = append(rg.replicas, r)
		}
		f.groups = append(f.groups, rg)
	}
	f.ring = newHashRing(keys, cfg.VNodes)
	f.tracer = cfg.Tracer
	f.mux.HandleFunc("/predict", f.handleProxy)
	f.mux.HandleFunc("/embed", f.handleProxy)
	f.mux.HandleFunc("/reload", f.handleReload)
	f.mux.HandleFunc("/stats", f.handleStats)
	f.mux.HandleFunc("/healthz", f.handleHealthz)
	// Both handlers are nil-safe: with the plane off they serve 404.
	f.mux.HandleFunc("/metrics", cfg.Metrics.Handler())
	f.mux.HandleFunc("/debug/trace/recent", cfg.Tracer.Handler())
	if cfg.Metrics != nil {
		f.registerMetrics(cfg.Metrics)
	}
	f.proberW.Add(1)
	go f.probe()
	return f, nil
}

// handleHealthz answers the liveness probe with build info and topology.
func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	bi := obs.ReadBuildInfo()
	writeJSON(w, Healthz{
		Status: "ok", Role: "frontend",
		Module: bi.Module, ModuleVersion: bi.ModuleVersion, GoVersion: bi.GoVersion,
		Rank: -1, Shards: 0, Groups: len(f.groups),
	})
}

// registerMetrics wires the frontend counters into the registry as
// scrape-time funcs plus the one request-duration histogram.
func (f *Frontend) registerMetrics(reg *obs.Registry) {
	f.reqDur = reg.Histogram("distgnn_frontend_request_duration_seconds",
		"End-to-end proxied request latency at the frontend.")
	counterFn(reg, "distgnn_frontend_requests_total",
		"Requests accepted by the frontend.", f.requests.Load)
	counterFn(reg, "distgnn_frontend_retries_total",
		"Failover attempts beyond the first replica.", f.retries.Load)
	counterFn(reg, "distgnn_frontend_shed_total",
		"Requests shed because every replica was saturated.", f.shed.Load)
	counterFn(reg, "distgnn_frontend_errors_total",
		"Requests no replica could serve.", f.errors.Load)
	counterFn(reg, "distgnn_frontend_reloads_total",
		"Fleet-wide checkpoint reloads applied.", f.reloads.Load)
	counterFn(reg, "distgnn_frontend_breaker_trips_total",
		"Replica healthy-to-unhealthy breaker transitions.", f.trips.Load)
}

func normalizeAddr(addr string) string {
	if !bytes.Contains([]byte(addr), []byte("://")) {
		return "http://" + addr
	}
	return addr
}

// Handler returns the frontend's HTTP handler.
func (f *Frontend) Handler() http.Handler { return f.mux }

// Close stops the health prober and closes the backend client's idle
// connections.
func (f *Frontend) Close() {
	close(f.quit)
	f.proberW.Wait()
	f.client.CloseIdleConnections()
}

// GroupFor returns the shard group index the consistent hash assigns to
// vertex (exported for the assignment-invariance property tests).
func (f *Frontend) GroupFor(vertex int32) int { return f.ring.lookup(vertex) }

// pickOrder returns the replica indexes of group g in attempt order:
// power-of-two-choices among the healthy replicas by in-flight depth
// first, then every remaining replica as failover candidates. When no
// replica is healthy all are candidates — a request is a better health
// probe than an error page.
func (f *Frontend) pickOrder(g *replicaGroup) []int {
	healthy := make([]int, 0, len(g.replicas))
	rest := make([]int, 0, len(g.replicas))
	for i, r := range g.replicas {
		if r.healthy.Load() {
			healthy = append(healthy, i)
		} else {
			rest = append(rest, i)
		}
	}
	pool := healthy
	if len(pool) == 0 {
		pool, rest = rest, nil
	}
	var first int
	switch len(pool) {
	case 1:
		first = pool[0]
	default:
		f.rngMu.Lock()
		i := pool[f.rng.Intn(len(pool))]
		j := pool[f.rng.Intn(len(pool))]
		for j == i && len(pool) > 1 {
			j = pool[f.rng.Intn(len(pool))]
		}
		f.rngMu.Unlock()
		first = i
		if g.replicas[j].inflight.Load() < g.replicas[i].inflight.Load() {
			first = j
		}
	}
	order := []int{first}
	for _, i := range pool {
		if i != first {
			order = append(order, i)
		}
	}
	return append(order, rest...)
}

// markOK records a successful backend exchange.
func (f *Frontend) markOK(r *replica) {
	r.consecFails.Store(0)
	r.healthy.Store(true)
}

// markFail records a failed exchange; crossing MaxFails consecutive
// failures marks the replica unhealthy until the prober restores it. Only
// the healthy→unhealthy transition counts as a breaker trip.
func (f *Frontend) markFail(r *replica) {
	r.fails.Add(1)
	if r.consecFails.Add(1) >= int64(f.cfg.MaxFails) {
		if r.healthy.CompareAndSwap(true, false) {
			f.trips.Add(1)
		}
	}
}

// handleProxy serves /predict and /embed: consistent-hash the vertex to
// its group, then walk the P2C attempt order until a replica answers. The
// backend response is fully buffered before any byte reaches the client,
// so a replica dying mid-response is retried instead of truncating.
func (f *Frontend) handleProxy(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	f.requests.Add(1)
	raw := r.URL.Query().Get("vertex")
	if raw == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing ?vertex= parameter"))
		return
	}
	v64, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad vertex %q: %v", raw, err))
		return
	}
	g := f.groups[f.ring.lookup(int32(v64))]

	// The frontend is the fleet entry point: mint the trace ID here (or
	// adopt one the client sent) so every hop downstream — the shard rank
	// and its halo peers — attributes its spans to the same request.
	tc := obs.OpenRequest(r, f.tracer, f.reqDur != nil)

	var lastErr error
	sawShed := false
	for attempt, idx := range f.pickOrder(g) {
		if attempt > 0 {
			f.retries.Add(1)
		}
		rep := g.replicas[idx]
		stop := tc.StartSpan(fmt.Sprintf("attempt%d_%s", attempt, rep.addr))
		status, header, body, err := f.tryReplica(rep, r, tc)
		stop()
		if err != nil {
			f.markFail(rep)
			lastErr = err
			continue
		}
		if status == http.StatusTooManyRequests {
			// Load shedding is the admission controller speaking, not a
			// sick replica: try a sibling, don't count it against health.
			sawShed = true
			lastErr = fmt.Errorf("replica %s saturated", rep.addr)
			continue
		}
		if status >= 500 {
			f.markFail(rep)
			lastErr = fmt.Errorf("replica %s returned %d", rep.addr, status)
			continue
		}
		f.markOK(rep)
		if ct := header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if id := tc.ID(); id != 0 {
			w.Header().Set(obs.TraceHeader, obs.FormatTraceID(id))
		}
		w.WriteHeader(status)
		if _, err := w.Write(body); err != nil {
			log.Printf("serve: frontend response write: %v", err)
		}
		f.finishRequest(tc, r, int32(v64), status)
		return
	}
	if sawShed {
		// Every live replica shed: propagate the backpressure.
		f.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("all replicas of group %s saturated: %v", g.key, lastErr))
		f.finishRequest(tc, r, int32(v64), http.StatusTooManyRequests)
		return
	}
	f.errors.Add(1)
	httpError(w, http.StatusBadGateway,
		fmt.Errorf("no replica of group %s could serve the request: %v", g.key, lastErr))
	f.finishRequest(tc, r, int32(v64), http.StatusBadGateway)
}

// finishRequest closes out one proxied request's observability.
func (f *Frontend) finishRequest(tc *obs.TraceCtx, r *http.Request, vertex int32, status int) {
	if tc == nil {
		return
	}
	f.reqDur.Observe(time.Since(tc.Start()))
	f.tracer.Finish(tc, strings.TrimPrefix(r.URL.Path, "/"), int64(vertex), status)
}

// tryReplica performs one fully-buffered exchange with a backend,
// propagating the trace ID when one is live.
func (f *Frontend) tryReplica(rep *replica, r *http.Request, tc *obs.TraceCtx) (int, http.Header, []byte, error) {
	target := proxyURL(rep.addr, r)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if id := tc.ID(); id != 0 {
		req.Header.Set(obs.TraceHeader, obs.FormatTraceID(id))
	}
	rep.requests.Add(1)
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := readCapped(resp.Body, maxBackendBody)
	if err != nil {
		// Died mid-response or sent an oversized one: report as a
		// transport failure so the caller retries a sibling — no byte has
		// reached the client yet.
		return 0, nil, nil, fmt.Errorf("replica %s: %w", rep.addr, err)
	}
	return resp.StatusCode, resp.Header, body, nil
}

// proxyURL rebuilds the inbound request's path+query against a backend
// address (url.URL assembly: an empty query stays empty).
func proxyURL(addr string, r *http.Request) string {
	base, err := url.Parse(addr)
	if err != nil {
		return addr + r.URL.Path
	}
	target := url.URL{
		Scheme:   base.Scheme,
		Host:     base.Host,
		Path:     r.URL.Path,
		RawQuery: r.URL.RawQuery,
	}
	return target.String()
}

// handleReload fans POST /reload out to every replica of every group; the
// fleet flips only if every replica accepts, and the per-replica outcomes
// are reported either way. The request body (a checkpoint, when no
// ?checkpoint= path is given) is buffered once and replayed per replica.
func (f *Frontend) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST /reload"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReloadBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("reload checkpoint exceeds %d bytes", maxReloadBody))
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	type outcome struct {
		Group   string `json:"group"`
		Replica string `json:"replica"`
		Status  int    `json:"status"`
		Error   string `json:"error,omitempty"`
	}
	var (
		mu       sync.Mutex
		results  []outcome
		failures int
		wg       sync.WaitGroup
	)
	for _, g := range f.groups {
		for _, rep := range g.replicas {
			wg.Add(1)
			go func(key string, rep *replica) {
				defer wg.Done()
				out := outcome{Group: key, Replica: rep.addr}
				req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
					proxyURL(rep.addr, r), bytes.NewReader(body))
				if err == nil {
					var resp *http.Response
					resp, err = f.client.Do(req)
					if err == nil {
						var rb []byte
						rb, err = readCapped(resp.Body, maxReloadReply)
						resp.Body.Close()
						if err == nil {
							out.Status = resp.StatusCode
							if resp.StatusCode != http.StatusOK {
								out.Error = string(bytes.TrimSpace(rb))
							}
						}
					}
				}
				if err != nil {
					out.Error = err.Error()
				}
				mu.Lock()
				if out.Status != http.StatusOK {
					failures++
				}
				results = append(results, out)
				mu.Unlock()
			}(g.key, rep)
		}
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool {
		if results[i].Group != results[j].Group {
			return results[i].Group < results[j].Group
		}
		return results[i].Replica < results[j].Replica
	})
	if failures > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		writeJSON(&statusPassthrough{w: w}, map[string]any{"reloaded": false, "replicas": results})
		return
	}
	f.reloads.Add(1)
	writeJSON(w, map[string]any{"reloaded": true, "replicas": results})
}

// statusPassthrough suppresses writeJSON's implicit WriteHeader(200) after
// an explicit error status has been written.
type statusPassthrough struct{ w http.ResponseWriter }

func (s *statusPassthrough) Header() http.Header         { return s.w.Header() }
func (s *statusPassthrough) Write(b []byte) (int, error) { return s.w.Write(b) }
func (s *statusPassthrough) WriteHeader(int)             {}

// probe restores unhealthy replicas: a background /healthz sweep every
// ProbeInterval. Healthy replicas are left alone — their state is already
// maintained passively by live traffic.
func (f *Frontend) probe() {
	defer f.proberW.Done()
	tick := time.NewTicker(f.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.quit:
			return
		case <-tick.C:
		}
		for _, g := range f.groups {
			for _, rep := range g.replicas {
				if rep.healthy.Load() {
					continue
				}
				resp, err := f.client.Get(rep.addr + "/healthz")
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					f.markOK(rep)
				}
			}
		}
	}
}

// ReplicaStats is one backend's block in the frontend /stats payload.
type ReplicaStats struct {
	Addr             string `json:"addr"`
	Healthy          bool   `json:"healthy"`
	Inflight         int64  `json:"inflight"`
	ConsecutiveFails int64  `json:"consecutive_fails"`
	Requests         int64  `json:"requests"`
	Fails            int64  `json:"fails"`
}

// GroupStats is one shard group's block in the frontend /stats payload.
type GroupStats struct {
	Key      string         `json:"key"`
	Replicas []ReplicaStats `json:"replicas"`
}

// FrontendStats is the frontend /stats payload.
type FrontendStats struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Groups        []GroupStats `json:"groups"`
	Requests      int64        `json:"requests"`
	Retries       int64        `json:"retries"`
	Shed          int64        `json:"shed"`
	Errors        int64        `json:"errors"`
	Reloads       int64        `json:"reloads"`
	// BreakerTrips counts replica healthy→unhealthy transitions.
	BreakerTrips int64 `json:"breaker_trips"`
}

// StatsSnapshot returns the same snapshot /stats serves.
func (f *Frontend) StatsSnapshot() FrontendStats {
	st := FrontendStats{
		UptimeSeconds: time.Since(f.start).Seconds(),
		Requests:      f.requests.Load(),
		Retries:       f.retries.Load(),
		Shed:          f.shed.Load(),
		Errors:        f.errors.Load(),
		Reloads:       f.reloads.Load(),
		BreakerTrips:  f.trips.Load(),
	}
	for _, g := range f.groups {
		gs := GroupStats{Key: g.key}
		for _, rep := range g.replicas {
			gs.Replicas = append(gs.Replicas, ReplicaStats{
				Addr:             rep.addr,
				Healthy:          rep.healthy.Load(),
				Inflight:         rep.inflight.Load(),
				ConsecutiveFails: rep.consecFails.Load(),
				Requests:         rep.requests.Load(),
				Fails:            rep.fails.Load(),
			})
		}
		st.Groups = append(st.Groups, gs)
	}
	return st
}

func (f *Frontend) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireGET(w, r) {
		return
	}
	writeJSON(w, f.StatsSnapshot())
}
