package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"distgnn/internal/comm"
)

// statsGoldenKeys is the pinned /stats schema: every key path the endpoint
// serves, in sorted order. Dashboards and the CI smoke scripts key off
// these names — renaming or dropping one is a breaking change and must
// update this golden deliberately.
var statsGoldenKeys = []string{
	"arch",
	"coalescer",
	"coalescer.avg_batch",
	"coalescer.batched_requests",
	"coalescer.batches",
	"coalescer.dedup_saved",
	"coalescer.max_batch_observed",
	"coalescer.max_pending",
	"coalescer.pending",
	"coalescer.requests",
	"coalescer.shed",
	"embedding_cache",
	"embeds",
	"engine",
	"engine.inferences",
	"engine.input_frontier_vertices",
	"engine.seed_vertices",
	"feature_cache",
	"mode",
	"model",
	"predicts",
	"reloads",
	"uptime_seconds",
}

// statsGoldenShardKeys extends the golden with the shard-mode block.
var statsGoldenShardKeys = []string{
	"shard",
	"shard.halo_fetched_bytes",
	"shard.halo_fetched_vertices",
	"shard.halo_fetches",
	"shard.halo_hits",
	"shard.halo_misses",
	"shard.halo_vertices_static",
	"shard.owned_vertices",
	"shard.partitioner",
	"shard.peer_served_bytes",
	"shard.peer_served_fetches",
	"shard.peer_served_vertices",
	"shard.rank",
	"shard.remote_cache",
	"shard.shards",
}

// statsGoldenStreamKeys extends the golden with the streaming-updates block
// served when the server runs with -updates.
var statsGoldenStreamKeys = []string{
	"stream",
	"stream.base_edges",
	"stream.compactions",
	"stream.edges_applied",
	"stream.epoch",
	"stream.invalidated_embeddings",
	"stream.invalidated_features",
	"stream.overlay_edges",
	"stream.overlay_vertices",
	"stream.updates",
}

// cacheGoldenKeys is the schema of every *_cache block.
var cacheGoldenKeys = []string{
	"capacity_bytes", "entries", "evictions", "hits", "misses", "puts", "used_bytes",
}

// jsonKeyPaths flattens a decoded JSON object into sorted dotted key paths.
// Cache blocks collapse to their parent key plus a shared sub-schema check,
// so the golden stays readable.
func jsonKeyPaths(t *testing.T, obj map[string]any) []string {
	t.Helper()
	var paths []string
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			path := k
			if prefix != "" {
				path = prefix + "." + k
			}
			if sub, ok := v.(map[string]any); ok {
				if strings.HasSuffix(k, "_cache") {
					// All cache blocks share one schema, checked once.
					paths = append(paths, path)
					assertCacheSchema(t, path, sub)
					continue
				}
				paths = append(paths, path)
				walk(path, sub)
				continue
			}
			paths = append(paths, path)
		}
	}
	walk("", obj)
	sort.Strings(paths)
	return paths
}

func assertCacheSchema(t *testing.T, path string, m map[string]any) {
	t.Helper()
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, cacheGoldenKeys) {
		t.Fatalf("%s schema drifted:\n got %v\nwant %v", path, keys, cacheGoldenKeys)
	}
}

func fetchStatsKeys(t *testing.T, handler http.Handler) []string {
	t.Helper()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/stats Content-Type %q", ct)
	}
	var obj map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatal(err)
	}
	return jsonKeyPaths(t, obj)
}

// TestStatsSchemaGolden pins the /stats JSON schema for both the
// single-process server and a sharded rank: exactly the golden key set, no
// silent additions or drops.
func TestStatsSchemaGolden(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	cfg := Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		FeatureCacheBytes: 1 << 20, EmbedCacheBytes: 1 << 20}

	single, err := New(ds, bytes.NewReader(ckpt), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if got := fetchStatsKeys(t, single.Handler()); !reflect.DeepEqual(got, statsGoldenKeys) {
		t.Fatalf("single-process /stats schema drifted:\n got %v\nwant %v", got, statsGoldenKeys)
	}

	eps := comm.NewProcFabric(2)
	defer comm.CloseAll(eps)
	shard, err := NewShard(ds, bytes.NewReader(ckpt), cfg, ShardConfig{Transport: eps[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	want := append(append([]string(nil), statsGoldenKeys...), statsGoldenShardKeys...)
	sort.Strings(want)
	if got := fetchStatsKeys(t, shard.Handler()); !reflect.DeepEqual(got, want) {
		t.Fatalf("shard /stats schema drifted:\n got %v\nwant %v", got, want)
	}

	ucfg := cfg
	ucfg.EnableUpdates = true
	upd, err := New(ds, bytes.NewReader(ckpt), ucfg)
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	want = append(append([]string(nil), statsGoldenKeys...), statsGoldenStreamKeys...)
	sort.Strings(want)
	if got := fetchStatsKeys(t, upd.Handler()); !reflect.DeepEqual(got, want) {
		t.Fatalf("updates-enabled /stats schema drifted:\n got %v\nwant %v", got, want)
	}
}

// TestErrorResponseSchemaGolden pins the error payload contract every
// endpoint shares: an application/json object with exactly one "error"
// string key, under the expected status code.
func TestErrorResponseSchemaGolden(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	srv, err := New(ds, bytes.NewReader(ckpt), Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		code int
	}{
		{"/predict", http.StatusBadRequest},
		{"/predict?vertex=zz", http.StatusBadRequest},
		{"/predict?vertex=-1", http.StatusBadRequest},
		{fmt.Sprintf("/predict?vertex=%d", ds.G.NumVertices), http.StatusBadRequest},
		{"/embed", http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, ct := readAll(t, resp)
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
		if ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", tc.path, ct)
		}
		var obj map[string]any
		if err := json.Unmarshal(body, &obj); err != nil {
			t.Fatalf("%s: error body is not JSON: %s", tc.path, body)
		}
		if len(obj) != 1 {
			t.Fatalf("%s: error object has keys beyond \"error\": %s", tc.path, body)
		}
		msg, ok := obj["error"].(string)
		if !ok || msg == "" {
			t.Fatalf("%s: missing non-empty \"error\" string: %s", tc.path, body)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return buf.Bytes(), resp.Header.Get("Content-Type")
}
