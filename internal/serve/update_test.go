package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"distgnn/internal/graph"
)

// update_test.go holds the mutation-plane satellites: the k-hop
// invalidation property test (the sweep kills exactly the affected
// entries — no over-, no under-invalidation), the golden-schema pins for
// the /update payloads, and the endpoint/constructor gating.

// updateFixture builds a single-process updates-enabled server with both
// caches big enough that nothing is ever evicted, so cache contents are
// exactly what the warm/invalidate traffic dictates.
func updateFixture(t *testing.T, layers int) *Server {
	t.Helper()
	ds, _, ckpt := trainedSageCheckpoint(t, 16, layers)
	srv, err := New(ds, bytes.NewReader(ckpt), Config{
		Arch: ArchGraphSAGE, Hidden: 16, NumLayers: layers,
		FeatureCacheBytes: 1 << 24, EmbedCacheBytes: 1 << 24,
		EnableUpdates: true, CompactThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// warmAllVertices runs every vertex through the inference path so the
// embedding cache holds one row per vertex and the feature cache holds
// every gathered row.
func warmAllVertices(t *testing.T, srv *Server, n int) {
	t.Helper()
	for lo := 0; lo < n; lo += 64 {
		hi := lo + 64
		if hi > n {
			hi = n
		}
		batch := make([]int32, 0, hi-lo)
		for v := lo; v < hi; v++ {
			batch = append(batch, int32(v))
		}
		if _, err := srv.inferAndCache(batch, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// expectedAffected is the independent model of the invalidation contract:
// BFS from the batch's destination vertices along forward out-edges of the
// post-mutation graph, to depth hops. Built from a plain edge list, no
// shared code with the server's reverse-snapshot BFS.
func expectedAffected(edges []graph.Edge, batch []graph.Edge, hops int) map[int32]bool {
	out := map[int32][]int32{}
	for _, e := range edges {
		out[e.Src] = append(out[e.Src], e.Dst)
	}
	for _, e := range batch {
		out[e.Src] = append(out[e.Src], e.Dst)
	}
	affected := map[int32]bool{}
	var frontier []int32
	for _, e := range batch {
		if !affected[e.Dst] {
			affected[e.Dst] = true
			frontier = append(frontier, e.Dst)
		}
	}
	for h := 0; h < hops; h++ {
		var next []int32
		for _, v := range frontier {
			for _, w := range out[v] {
				if !affected[w] {
					affected[w] = true
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return affected
}

// TestUpdateInvalidationProperty pins the invalidation contract across
// random update batches at 2 and 3 layers: after each batch, every
// affected vertex's embedding row is gone, every unaffected previously
// cached row survives, the feature cache drops exactly the touched
// destinations, and the /stats counters agree with the independent model.
func TestUpdateInvalidationProperty(t *testing.T) {
	for _, layers := range []int{2, 3} {
		srv := updateFixture(t, layers)
		ds := srv.engine.Load().ds
		n := ds.G.NumVertices
		hops := layers - 1
		edges := ds.G.Edges() // running post-mutation edge list for the model
		rng := rand.New(rand.NewSource(int64(97 + layers)))

		var wantInvEmb, wantInvFeat int64
		for round := 0; round < 4; round++ {
			warmAllVertices(t, srv, n)
			eng := srv.engine.Load()

			// Deliberately chain two inserts (a→b then b→c) so the fan-out
			// must traverse an edge added in the same batch.
			a, b2, c := int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n))
			batch := []graph.Edge{{Src: a, Dst: b2}, {Src: b2, Dst: c}}
			for i := 0; i < 6; i++ {
				batch = append(batch, graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))})
			}

			// Which feature rows are resident right now (warm pass gathers
			// everything, but record rather than assume).
			featBefore := map[int32]bool{}
			for v := 0; v < n; v++ {
				if _, ok := eng.feat.Get(int32(v)); ok {
					featBefore[int32(v)] = true
				}
			}
			for v := 0; v < n; v++ {
				if _, ok := srv.emb.Get(int32(v)); !ok {
					t.Fatalf("layers=%d round %d: vertex %d not warm before update", layers, round, v)
				}
			}

			resp := postUpdate(t, srv, batch)
			affected := expectedAffected(edges, batch, hops)
			touched := map[int32]bool{}
			for _, e := range batch {
				touched[e.Dst] = true
			}
			for _, e := range batch {
				edges = append(edges, e)
			}

			// No under-invalidation: every affected embedding row is gone.
			// No over-invalidation: everything else survived.
			for v := 0; v < n; v++ {
				_, ok := srv.emb.Get(int32(v))
				if affected[int32(v)] && ok {
					t.Fatalf("layers=%d round %d: affected vertex %d still cached (under-invalidation)",
						layers, round, v)
				}
				if !affected[int32(v)] && !ok {
					t.Fatalf("layers=%d round %d: unaffected vertex %d dropped (over-invalidation)",
						layers, round, v)
				}
			}
			// Feature cache: exactly the touched destinations drop.
			for v := range featBefore {
				_, ok := eng.feat.Get(v)
				if touched[v] && ok {
					t.Fatalf("layers=%d round %d: touched feature row %d still cached", layers, round, v)
				}
				if !touched[v] && !ok {
					t.Fatalf("layers=%d round %d: untouched feature row %d dropped", layers, round, v)
				}
			}

			// The response and /stats counters match the independent model.
			if resp.InvalidatedEmbeddings != len(affected) {
				t.Fatalf("layers=%d round %d: response says %d embeddings invalidated, model says %d",
					layers, round, resp.InvalidatedEmbeddings, len(affected))
			}
			nTouchedCached := 0
			for v := range touched {
				if featBefore[v] {
					nTouchedCached++
				}
			}
			if resp.InvalidatedFeatures != nTouchedCached {
				t.Fatalf("layers=%d round %d: response says %d features invalidated, model says %d",
					layers, round, resp.InvalidatedFeatures, nTouchedCached)
			}
			wantInvEmb += int64(len(affected))
			wantInvFeat += int64(nTouchedCached)
			str := srv.StatsSnapshot().Stream
			if str.InvalidatedEmbeddings != wantInvEmb || str.InvalidatedFeatures != wantInvFeat {
				t.Fatalf("layers=%d round %d: stream counters (%d,%d), want (%d,%d)",
					layers, round, str.InvalidatedEmbeddings, str.InvalidatedFeatures,
					wantInvEmb, wantInvFeat)
			}
			if str.Updates != int64(round+1) || str.EdgesApplied != int64((round+1)*len(batch)) {
				t.Fatalf("layers=%d round %d: stream update counters %+v", layers, round, str)
			}
		}
	}
}

// TestUpdateSchemaGolden pins the /update wire contract: the request
// shape, the response's key paths, and the per-rank ack schema.
func TestUpdateSchemaGolden(t *testing.T) {
	body, err := json.Marshal(UpdateRequest{Edges: [][2]int32{{1, 2}, {3, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(body), `{"edges":[[1,2],[3,4]]}`; got != want {
		t.Fatalf("request schema drifted: %s, want %s", got, want)
	}

	srv := updateFixture(t, 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, ct := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || ct != "application/json" {
		t.Fatalf("/update status %d Content-Type %q: %s", resp.StatusCode, ct, raw)
	}
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{
		"applied", "compactions", "epoch",
		"invalidated_embeddings", "invalidated_features", "overlay_edges", "ranks",
	}
	if got := jsonKeyPaths(t, obj); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("/update response schema drifted:\n got %v\nwant %v", got, wantKeys)
	}
	ranks, ok := obj["ranks"].([]any)
	if !ok || len(ranks) != 1 {
		t.Fatalf("single-process response must carry exactly one rank ack: %s", raw)
	}
	ack, ok := ranks[0].(map[string]any)
	if !ok {
		t.Fatalf("rank ack is not an object: %s", raw)
	}
	var ackKeys []string
	for k := range ack {
		ackKeys = append(ackKeys, k)
	}
	sort.Strings(ackKeys)
	wantAck := []string{
		"epoch", "invalidated_embeddings", "invalidated_features", "overlay_edges", "rank",
	}
	if !reflect.DeepEqual(ackKeys, wantAck) {
		t.Fatalf("rank ack schema drifted:\n got %v\nwant %v", ackKeys, wantAck)
	}
}

// TestUpdateGating pins the endpoint's refusal paths (including the body
// size cap) and the constructor's exact-mode-only constraint.
func TestUpdateGating(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)

	// Sampled serving cannot honor the bit-identity contract: rejected at
	// construction, not silently degraded.
	if _, err := New(ds, bytes.NewReader(ckpt), Config{
		Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		EnableUpdates: true, Fanouts: []int{5, 5},
	}); err == nil {
		t.Fatal("New accepted EnableUpdates together with sampled fanouts")
	}

	// Updates off: /update is forbidden.
	off, err := New(ds, bytes.NewReader(ckpt), Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, err := http.Post(tsOff.URL+"/update", "application/json",
		bytes.NewReader([]byte(`{"edges":[[0,1]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled /update: status %d, want 403", resp.StatusCode)
	}

	srv := updateFixture(t, 2)
	n := srv.engine.Load().ds.G.NumVertices
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, method, body string
		code               int
	}{
		{"get", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"bad-json", http.MethodPost, `{"edges":`, http.StatusBadRequest},
		{"empty", http.MethodPost, `{"edges":[]}`, http.StatusBadRequest},
		{"negative", http.MethodPost, `{"edges":[[-1,0]]}`, http.StatusBadRequest},
		{"out-of-range", http.MethodPost, fmt.Sprintf(`{"edges":[[0,%d]]}`, n), http.StatusBadRequest},
		// Well-formed, in-range edges, but a body past maxUpdateBody.
		{"oversized", http.MethodPost,
			`{"edges":[` + strings.Repeat("[0,1],", maxUpdateBody/6) + `[0,1]]}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+"/update", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		// A refused request must not advance the topology epoch.
		if got := srv.upd.mut.Snapshot().Epoch(); got != 0 {
			t.Fatalf("%s: refused request advanced epoch to %d", tc.name, got)
		}
	}
}

// TestUpdateConcurrentInference races the serving path against the
// mutation path: query workers hammer inferAndCache over random batches
// while an updater drives insert batches through POST /update
// (invalidation sweeps included) and finishes with a compaction. Run
// under -race this exercises the update lock ordering; the functional pin
// is the stale-publish guard — once the traffic stops, every vertex's
// served logits, cache hits included, must be bit-identical to a cold
// server on the rebuilt final graph. An inference that straddled an epoch
// bump and still published its rows would leave a stale cache entry and
// fail the sweep.
func TestUpdateConcurrentInference(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	srv, err := New(ds, bytes.NewReader(ckpt), Config{
		Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		FeatureCacheBytes: 1 << 24, EmbedCacheBytes: 1 << 24,
		EnableUpdates: true, CompactThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	n := int32(ds.G.NumVertices)

	rng := rand.New(rand.NewSource(71))
	batches := make([][]graph.Edge, 8)
	for i := range batches {
		for j := 0; j < 6; j++ {
			batches[i] = append(batches[i], graph.Edge{Src: rng.Int31n(n), Dst: rng.Int31n(n)})
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				batch := make([]int32, 8)
				for i := range batch {
					batch[i] = r.Int31n(n)
				}
				if _, err := srv.inferAndCache(batch, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + w))
	}
	var inserted []graph.Edge
	for _, b := range batches {
		postUpdate(t, srv, b)
		inserted = append(inserted, b...)
	}
	srv.upd.mut.Compact()
	close(done)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	cold, err := New(mutatedDataset(t, ds, inserted), bytes.NewReader(ckpt), Config{
		Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cold.Close)
	for lo := int32(0); lo < n; lo += 64 {
		hi := lo + 64
		if hi > n {
			hi = n
		}
		probe := make([]int32, 0, hi-lo)
		for v := lo; v < hi; v++ {
			probe = append(probe, v)
		}
		got, err := srv.inferAndCache(probe, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Engine().Infer(probe)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range probe {
			bitsEqual(t, got.Row(i), want.Row(i),
				fmt.Sprintf("vertex %d after racing updates vs cold rebuild", v))
		}
	}
}
