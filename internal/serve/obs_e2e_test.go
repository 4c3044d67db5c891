package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/obs"
)

// healthzGoldenKeys pins the /healthz payload of a serving process (single
// or shard rank): groups is omitted (0 on servers), model/mode are present.
var healthzGoldenKeys = []string{
	"go_version", "mode", "model", "module", "module_version",
	"rank", "role", "shards", "status",
}

// healthzFrontendGoldenKeys pins the frontend's /healthz payload: groups is
// present, model/mode are omitted.
var healthzFrontendGoldenKeys = []string{
	"go_version", "groups", "module", "module_version",
	"rank", "role", "shards", "status",
}

func fetchHealthz(t *testing.T, handler http.Handler) (map[string]any, []string) {
	t.Helper()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var obj map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return obj, keys
}

// TestHealthzSchemaGolden pins the /healthz schema and identity fields for
// the single-process server, a shard rank, and the replica frontend.
func TestHealthzSchemaGolden(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	cfg := Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}

	single, err := New(ds, bytes.NewReader(ckpt), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	obj, keys := fetchHealthz(t, single.Handler())
	if !reflect.DeepEqual(keys, healthzGoldenKeys) {
		t.Fatalf("single /healthz schema drifted:\n got %v\nwant %v", keys, healthzGoldenKeys)
	}
	if obj["status"] != "ok" || obj["role"] != "server" {
		t.Fatalf("single /healthz identity: %v", obj)
	}
	if obj["rank"] != float64(-1) || obj["shards"] != float64(1) {
		t.Fatalf("single /healthz fleet identity: rank=%v shards=%v", obj["rank"], obj["shards"])
	}
	if obj["go_version"] == "" || obj["model"] == "" {
		t.Fatalf("single /healthz build/model info missing: %v", obj)
	}

	eps := comm.NewProcFabric(2)
	defer comm.CloseAll(eps)
	shard, err := NewShard(ds, bytes.NewReader(ckpt), cfg, ShardConfig{Transport: eps[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	obj, keys = fetchHealthz(t, shard.Handler())
	if !reflect.DeepEqual(keys, healthzGoldenKeys) {
		t.Fatalf("shard /healthz schema drifted:\n got %v\nwant %v", keys, healthzGoldenKeys)
	}
	if obj["rank"] != float64(1) || obj["shards"] != float64(2) {
		t.Fatalf("shard /healthz fleet identity: rank=%v shards=%v", obj["rank"], obj["shards"])
	}

	f, err := NewFrontend(FrontendConfig{
		Groups:        []GroupSpec{{Key: "g0", Replicas: []string{"127.0.0.1:1"}}},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	obj, keys = fetchHealthz(t, f.Handler())
	if !reflect.DeepEqual(keys, healthzFrontendGoldenKeys) {
		t.Fatalf("frontend /healthz schema drifted:\n got %v\nwant %v", keys, healthzFrontendGoldenKeys)
	}
	if obj["role"] != "frontend" || obj["groups"] != float64(1) {
		t.Fatalf("frontend /healthz identity: %v", obj)
	}
}

// TestReadOnlyEndpointsReject405 pins the method guard: POSTing to any
// read-only endpoint answers 405, and the serve-layer handlers advertise
// the allowed method.
func TestReadOnlyEndpointsReject405(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	fleet := startFleet(t, ds, ckpt, Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}, Topology{
		Frontend: "127.0.0.1:0", FrontendConfig: FrontendConfig{ProbeInterval: time.Hour},
		Obs: func(role string, rank int, _ string) (*obs.Registry, *obs.Tracer) {
			return obs.NewRegistry(), obs.NewTracer(obs.TracerConfig{Role: role, Rank: rank})
		},
	})
	defer fleet.Close()
	srvURL, frontURL := "http://"+fleet.Addrs[0], "http://"+fleet.FrontendAddr

	cases := []struct {
		base, path string
		wantAllow  bool // serve-layer handlers set the Allow header
	}{
		{srvURL, "/stats", true},
		{srvURL, "/healthz", true},
		{srvURL, "/metrics", false},
		{srvURL, "/debug/trace/recent", false},
		{srvURL, "/predict?vertex=0", true},
		{srvURL, "/embed?vertex=0", true},
		{frontURL, "/stats", true},
		{frontURL, "/healthz", true},
		{frontURL, "/metrics", false},
		{frontURL, "/predict?vertex=0", true},
	}
	for _, tc := range cases {
		resp, err := http.Post(tc.base+tc.path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: status %d, want 405", tc.path, resp.StatusCode)
		}
		if tc.wantAllow && resp.Header.Get("Allow") != "GET" {
			t.Fatalf("POST %s: Allow header %q, want GET", tc.path, resp.Header.Get("Allow"))
		}
	}
}

// expositionLine matches one Prometheus 0.0.4 text sample:
// name{labels} value. HELP/TYPE comment lines are checked separately.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[-+]?(Inf|[0-9.e+-]+))$`)

// TestMetricsExposition exercises GET /metrics after live traffic: the body
// must parse as Prometheus text and carry the serving metric families with
// values that reconcile against /stats.
func TestMetricsExposition(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	reg := obs.NewRegistry()
	srv, err := New(ds, bytes.NewReader(ckpt), Config{
		Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		EmbedCacheBytes: 1 << 20, FeatureCacheBytes: 1 << 20,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, v := range []int32{0, 1, 2, 1} {
		resp, err := http.Get(fmt.Sprintf("%s/predict?vertex=%d", ts.URL, v))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, ct := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}

	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		var name string
		var val float64
		sp := strings.LastIndexByte(line, ' ')
		name = line[:sp]
		fmt.Sscanf(line[sp+1:], "%g", &val)
		samples[name] = val
	}

	st := srv.StatsSnapshot()
	want := map[string]float64{
		"distgnn_serve_predicts_total":                float64(st.Predicts),
		"distgnn_coalescer_requests_total":            float64(st.Coalescer.Requests),
		"distgnn_engine_inferences_total":             float64(st.Engine.Inferences),
		`distgnn_cache_hits_total{cache="embedding"}`: float64(st.EmbeddingCache.Hits),
	}
	for name, w := range want {
		got, ok := samples[name]
		if !ok {
			t.Fatalf("/metrics missing %s\nbody:\n%s", name, body)
		}
		if got != w {
			t.Fatalf("%s = %g, want %g (stats)", name, got, w)
		}
	}
	if samples["distgnn_serve_predicts_total"] < 3 {
		t.Fatalf("predicts_total %g after 4 requests", samples["distgnn_serve_predicts_total"])
	}
	// Histograms exist even though tracing is off — metrics-only requests
	// still time their stages.
	if _, ok := samples[`distgnn_serve_request_duration_seconds{endpoint="predict"}_count`]; !ok {
		// The histogram count sample is name_count{labels}; probe both forms.
		if _, ok := samples[`distgnn_serve_request_duration_seconds_count{endpoint="predict"}`]; !ok {
			t.Fatalf("/metrics missing predict duration histogram\nbody:\n%s", body)
		}
	}
}

// obsFleet is a 2-shard TCP fleet with the full obs plane on: one registry
// and tracer per rank, real HTTP listeners, and a traced frontend on top.
type obsFleet struct {
	*Fleet
	tracers []*obs.Tracer
	ftracer *obs.Tracer
}

func newObsFleet(t *testing.T) *obsFleet {
	t.Helper()
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	of := &obsFleet{tracers: make([]*obs.Tracer, 2)}
	of.Fleet = startFleet(t, ds, ckpt, Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}, Topology{
		Shards: 2, Fabric: FabricTCP, RemoteCacheBytes: 1 << 20,
		Frontend: "127.0.0.1:0", FrontendConfig: FrontendConfig{ProbeInterval: time.Hour},
		Obs: func(role string, rank int, _ string) (*obs.Registry, *obs.Tracer) {
			tracer := obs.NewTracer(obs.TracerConfig{Role: role, Rank: rank})
			if role == "frontend" {
				of.ftracer = tracer
			} else {
				of.tracers[rank] = tracer
			}
			return obs.NewRegistry(), tracer
		},
	})
	return of
}

func findTrace(recs []obs.Trace, id, endpoint string) *obs.Trace {
	for i := range recs {
		if recs[i].TraceID == id && recs[i].Endpoint == endpoint {
			return &recs[i]
		}
	}
	return nil
}

// TestCrossRankTraceAttribution is the tracing acceptance pin: one tail
// request entering at the frontend is attributable end-to-end — the
// frontend's span, the serving rank's predict record, and the halo peer's
// fetch record all carry the same trace ID, and the ID round-trips to the
// client in the response header.
func TestCrossRankTraceAttribution(t *testing.T) {
	of := newObsFleet(t)
	defer of.Close()

	probe := []int32{2, 9, 17, 33, 40, 63}
	crossRank := false
	for _, v := range probe {
		resp, err := http.Get(fmt.Sprintf("http://%s/predict?vertex=%d", of.FrontendAddr, v))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("vertex %d: status %d: %s", v, resp.StatusCode, body)
		}
		id := resp.Header.Get(obs.TraceHeader)
		if _, ok := obs.ParseTraceID(id); !ok {
			t.Fatalf("vertex %d: bad trace header %q", v, id)
		}

		// The frontend recorded the request under the ID it minted.
		frec := findTrace(of.ftracer.Recent(256), id, "predict")
		if frec == nil {
			t.Fatalf("vertex %d: frontend has no trace %s", v, id)
		}
		if len(frec.Spans) == 0 || !strings.HasPrefix(frec.Spans[0].Name, "attempt0_") {
			t.Fatalf("vertex %d: frontend trace lacks attempt span: %+v", v, frec)
		}

		// Exactly one rank served the inference under that ID: the rank
		// the frontend hashed the vertex to.
		var served *obs.Trace
		servedRank := -1
		for r, tracer := range of.tracers {
			if rec := findTrace(tracer.Recent(256), id, "predict"); rec != nil {
				if served != nil {
					t.Fatalf("vertex %d: trace %s served on ranks %d and %d", v, id, servedRank, r)
				}
				served, servedRank = rec, r
			}
		}
		if served == nil {
			t.Fatalf("vertex %d: no rank recorded predict trace %s", v, id)
		}
		if g := of.Frontend.GroupFor(v); servedRank != g {
			t.Fatalf("vertex %d: served on rank %d, frontend hashed it to rank %d", v, servedRank, g)
		}
		spans := map[string]bool{}
		for _, sp := range served.Spans {
			spans[sp.Name] = true
		}
		for _, want := range []string{"queue_wait", "sample", "gather", "forward", "encode"} {
			if !spans[want] {
				t.Fatalf("vertex %d: predict trace on rank %d missing %q span: %+v",
					v, servedRank, want, served.Spans)
			}
		}

		// When the gather crossed the fabric, the peer attributed its fetch
		// to the same trace ID: cross-rank attribution.
		peer := 1 - servedRank
		if rec := findTrace(of.tracers[peer].Recent(256), id, "halo_fetch"); rec != nil {
			crossRank = true
			if rec.Peer != servedRank {
				t.Fatalf("vertex %d: halo record names peer %d, served rank %d", v, rec.Peer, servedRank)
			}
			if !spans[fmt.Sprintf("halo_rtt_rank%d", peer)] {
				t.Fatalf("vertex %d: served trace lacks halo_rtt_rank%d span: %+v",
					v, peer, served.Spans)
			}
		}
	}
	if !crossRank {
		t.Fatal("no probe vertex produced a cross-rank halo fetch record")
	}

	// The ring is also served over HTTP: /debug/trace/recent on rank 0
	// returns a JSON array of trace records.
	resp, err := http.Get("http://" + of.Addrs[0] + "/debug/trace/recent?n=256")
	if err != nil {
		t.Fatal(err)
	}
	body, ct := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || ct != "application/json" {
		t.Fatalf("/debug/trace/recent: status %d, Content-Type %q", resp.StatusCode, ct)
	}
	var recs []obs.Trace
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatalf("/debug/trace/recent not a trace array: %v\n%s", err, body)
	}
	if len(recs) == 0 {
		t.Fatal("/debug/trace/recent empty after traffic")
	}

	// And the shard metrics are live on every rank's /metrics.
	for r := range of.Addrs {
		resp, err := http.Get("http://" + of.Addrs[r] + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rank %d /metrics status %d", r, resp.StatusCode)
		}
		for _, name := range []string{"distgnn_halo_fetches_total", "distgnn_net_sent_bytes_total"} {
			if !strings.Contains(string(body), name) {
				t.Fatalf("rank %d /metrics missing %s", r, name)
			}
		}
	}
}
