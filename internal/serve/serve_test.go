package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/obs"
	"distgnn/internal/tensor"
	"distgnn/internal/train"
)

// trainedSageCheckpoint trains a small GraphSAGE for a few epochs and
// returns the dataset, the trained model, and its serialized checkpoint —
// the exact train→save→serve handoff distgnn-train and distgnn-serve
// perform.
func trainedSageCheckpoint(t *testing.T, hidden, layers int) (*datasets.Dataset, *model.GraphSAGE, []byte) {
	t.Helper()
	ds, err := datasets.Load("reddit-sim", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	res, err := train.SingleSocket(ds, train.SingleConfig{
		Model:  model.Config{Hidden: hidden, NumLayers: layers, Seed: 3},
		Epochs: 3, LR: 0.02, UseAdam: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nn.WriteParams(&buf, res.Model.Params()); err != nil {
		t.Fatal(err)
	}
	return ds, res.Model, buf.Bytes()
}

func bitsEqual(t *testing.T, got, want []float32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s: col %d: %v (%#x) != %v (%#x)",
				what, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
		}
	}
}

// TestExactServingMatchesFullForwardBitwise is the serving-correctness
// acceptance pin: for a trained checkpoint, exact-mode /predict logits are
// bit-identical across batch-of-1, a coalesced micro-batch, cold and warm
// cache paths — and all of them equal a direct full-graph Forward.
func TestExactServingMatchesFullForwardBitwise(t *testing.T) {
	ds, m, ckpt := trainedSageCheckpoint(t, 16, 2)

	full := m.Forward(ds.Features, false)
	probe := []int32{0, 1, 5, 17, int32(ds.G.NumVertices - 1)}

	// Batch-of-1 engine inference, caches enabled (cold then warm).
	srv, err := New(ds, bytes.NewReader(ckpt), Config{
		Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		FeatureCacheBytes: 1 << 20, EmbedCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cold := make(map[int32][]float32)
	for _, v := range probe {
		out, err := srv.Engine().Infer([]int32{v})
		if err != nil {
			t.Fatal(err)
		}
		row := append([]float32(nil), out.Row(0)...)
		cold[v] = row
		bitsEqual(t, row, full.Row(int(v)), "batch-of-1 (cold) vs full Forward")
	}
	// Warm pass: the feature cache is now populated; results must not move.
	for _, v := range probe {
		out, err := srv.Engine().Infer([]int32{v})
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, out.Row(0), cold[v], "warm vs cold")
	}

	// One coalesced micro-batch with duplicates: per-row results identical.
	batch := append(append([]int32(nil), probe...), probe[0], probe[2])
	out, err := srv.Engine().Infer(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range batch {
		bitsEqual(t, out.Row(i), full.Row(int(v)), "coalesced micro-batch vs full Forward")
	}
}

// TestExactGATServingMatchesFullForwardBitwise extends the pin to the
// attention model: serving runs the model's own GAT layer over k-hop
// blocks, and the blocks must give the full-graph op order.
func TestExactGATServingMatchesFullForwardBitwise(t *testing.T) {
	ds, full, ckpt, cfg := trainedGATCheckpoint(t)
	eng, err := NewEngine(ds, ModelSpec{
		Arch: ArchGAT, Hidden: cfg.Hidden, OutDim: cfg.OutDim, NumLayers: cfg.NumLayers, NumHeads: cfg.NumHeads,
	}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.ReadParams(bytes.NewReader(ckpt), eng.Params()); err != nil {
		t.Fatal(err)
	}
	probe := []int32{2, 9, 33, int32(ds.G.NumVertices - 2)}
	got, err := eng.Infer(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range probe {
		bitsEqual(t, got.Row(i), full.Row(int(v)), "GAT exact serving vs full Forward")
	}
}

// TestPaddedGATServableThroughConfig: a multi-head GAT whose output width
// was padded up to a NumHeads multiple (the standard workaround when the
// class count doesn't divide the heads) must load through serve.New via
// Config.OutDim — the CLI's -out-dim flag.
func TestPaddedGATServableThroughConfig(t *testing.T) {
	ds, err := datasets.Load("reddit-sim", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	heads := 2
	out := ((ds.NumClasses + heads - 1) / heads) * heads // 41 → 42
	gat, err := model.NewGAT(ds.G, model.GATConfig{
		InDim: ds.Features.Cols, Hidden: 16, OutDim: out,
		NumLayers: 2, NumHeads: heads, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nn.WriteParams(&buf, gat.Params()); err != nil {
		t.Fatal(err)
	}
	// Without OutDim the class count 41 is indivisible by 2 heads: clear error.
	if _, err := New(ds, bytes.NewReader(buf.Bytes()), Config{
		Arch: ArchGAT, Hidden: 16, NumLayers: 2, NumHeads: heads,
	}); err == nil {
		t.Fatal("indivisible OutDim must be rejected")
	}
	srv, err := New(ds, bytes.NewReader(buf.Bytes()), Config{
		Arch: ArchGAT, Hidden: 16, NumLayers: 2, NumHeads: heads, OutDim: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	full := gat.Forward(ds.Features, false)
	got, err := srv.Engine().Infer([]int32{6})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, got.Row(0), full.Row(6), "padded GAT via Config.OutDim")
}

// TestGATConfigErrorNamesOutDim: the engine takes its GAT config check
// from model.NewGAT and adds the -out-dim hint a padded checkpoint needs.
func TestGATConfigErrorNamesOutDim(t *testing.T) {
	ds, err := datasets.Load("reddit-sim", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewEngine(ds, ModelSpec{Arch: ArchGAT, Hidden: 16, OutDim: 41, NumLayers: 2, NumHeads: 2}, nil, 0)
	if err == nil || !strings.Contains(err.Error(), "model: GAT widths") || !strings.Contains(err.Error(), "-out-dim") {
		t.Fatalf("indivisible GAT width: got %v, want model's check with the -out-dim hint", err)
	}
}

// TestHTTPEndpoints drives the real handler: /predict agrees with the
// direct Forward, repeated queries (now embedding-cache hits) return the
// same bytes, /embed returns the same vector /predict scored, and /stats
// reflects the traffic.
func TestHTTPEndpoints(t *testing.T) {
	ds, m, ckpt := trainedSageCheckpoint(t, 16, 2)
	srv, err := New(ds, bytes.NewReader(ckpt), Config{
		Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		MaxBatch: 8, FeatureCacheBytes: 1 << 20, EmbedCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	full := m.Forward(ds.Features, false)
	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, body.Bytes()
	}

	resp, body := get("/predict?vertex=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, pr.Logits, full.Row(7), "HTTP /predict vs full Forward")
	wantClass := make([]int, full.Rows)
	full.ArgmaxRows(wantClass)
	if pr.Class != wantClass[7] {
		t.Fatalf("class %d != argmax %d", pr.Class, wantClass[7])
	}

	// Second query is an embedding-cache hit and must be byte-identical.
	_, body2 := get("/predict?vertex=7")
	if !bytes.Equal(body, body2) {
		t.Fatalf("warm response differs:\ncold %s\nwarm %s", body, body2)
	}

	resp, body = get("/embed?vertex=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed status %d", resp.StatusCode)
	}
	var er EmbedResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, er.Embedding, pr.Logits, "/embed vs /predict logits")

	for _, bad := range []string{"/predict", "/predict?vertex=zzz", "/predict?vertex=-4",
		"/predict?vertex=99999999"} {
		resp, _ := get(bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, body = get("/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Predicts < 2 || st.Embeds < 1 {
		t.Fatalf("stats counters: %+v", st)
	}
	if st.EmbeddingCache.Hits < 2 { // warm /predict + /embed both hit
		t.Fatalf("embedding cache hits %d, want ≥2", st.EmbeddingCache.Hits)
	}
	if st.Mode != "exact" || st.Arch != ArchGraphSAGE {
		t.Fatalf("mode %q arch %q", st.Mode, st.Arch)
	}

	resp, _ = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestCheckpointMismatchFailsFast pins the fail-fast contract: a checkpoint
// loaded with the wrong dims or arch must error at startup with a message
// naming the requested model, never serve.
func TestCheckpointMismatchFailsFast(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	for _, cfg := range []Config{
		{Arch: ArchGraphSAGE, Hidden: 32, NumLayers: 2}, // wrong width
		{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 3}, // wrong depth
		{Arch: ArchGAT, Hidden: 16, NumLayers: 2, NumHeads: 1},
	} {
		_, err := New(ds, bytes.NewReader(ckpt), cfg)
		if err == nil {
			t.Fatalf("config %+v: mismatched checkpoint accepted", cfg)
		}
	}
}

// TestSampledModeServes covers the sampled path: valid logits with the
// right width, and /stats reporting the sampled mode.
// TestSampledModeServes runs both architectures on sampled blocks: small
// fanouts give finite logits of the model's width, and fanouts no smaller
// than the largest in-degree take every neighbor in CSR order, so they
// give the full Forward's bits.
func TestSampledModeServes(t *testing.T) {
	for _, arch := range []Arch{ArchGraphSAGE, ArchGAT} {
		t.Run(string(arch), func(t *testing.T) {
			ds, full, ckpt, cfg := shardFixture(t, arch)
			width := ds.NumClasses
			if cfg.OutDim != 0 {
				width = cfg.OutDim
			}
			cfg.Fanouts = []int{5, 5}
			srv, err := New(ds, bytes.NewReader(ckpt), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			out, err := srv.Engine().Infer([]int32{3, 11})
			if err != nil {
				t.Fatal(err)
			}
			if out.Rows != 2 || out.Cols != width {
				t.Fatalf("sampled output %dx%d, want 2x%d", out.Rows, out.Cols, width)
			}
			for _, v := range out.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("non-finite sampled logit %v", v)
				}
			}
			if mode := srv.Engine().Mode(); mode != "sampled(5,5)" {
				t.Fatalf("mode %q", mode)
			}

			maxDeg := 0
			for _, d := range ds.G.InDegrees() {
				maxDeg = max(maxDeg, int(d))
			}
			cfg.Fanouts = []int{maxDeg, maxDeg}
			wide, err := New(ds, bytes.NewReader(ckpt), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer wide.Close()
			probe := []int32{3, 11, int32(ds.G.NumVertices - 1)}
			got, err := wide.Engine().Infer(probe)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range probe {
				bitsEqual(t, got.Row(i), full.Row(int(v)), "sampled with full fanouts vs full Forward")
			}
		})
	}
}

// TestSampledInferGolden pins sampled-mode inference to logits digests
// recorded from a fixed seed: the sampler's RNG stream and the block
// forward over sampled neighborhoods, which no full-Forward comparison
// can check. A deliberate change to those bits must update the digests.
func TestSampledInferGolden(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	eng, err := NewEngine(ds, ModelSpec{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}, []int{5, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.ReadParams(bytes.NewReader(ckpt), eng.Params()); err != nil {
		t.Fatal(err)
	}
	// One engine, calls in order: each draws the next samples.
	for _, c := range []struct {
		probe  []int32
		digest string
	}{
		{[]int32{0, 7, 42}, "6eac0275155379de"},
		{[]int32{int32(ds.G.NumVertices - 1)}, "71367a4f801ccdd4"},
		{[]int32{7}, "ac998b4ed5f61156"},
	} {
		out, err := eng.Infer(c.probe)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, v := range out.Data {
			h.Write(binary.LittleEndian.AppendUint32(nil, math.Float32bits(v)))
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.digest {
			t.Errorf("sampled logits of %v: digest %s, want %s", c.probe, got, c.digest)
		}
	}
}

// TestConcurrentClientsThroughHTTP hammers the full pipeline — coalescer,
// engine, both caches — from concurrent clients, for both architectures;
// every response must carry the vertex's own bit-exact logits (the -race
// CI pass runs this too, so GAT's shared layers are read concurrently).
func TestConcurrentClientsThroughHTTP(t *testing.T) {
	for _, arch := range []Arch{ArchGraphSAGE, ArchGAT} {
		t.Run(string(arch), func(t *testing.T) {
			ds, full, ckpt, cfg := shardFixture(t, arch)
			cfg.MaxBatch, cfg.FeatureCacheBytes, cfg.EmbedCacheBytes = 8, 1<<20, 1<<20
			srv, err := New(ds, bytes.NewReader(ckpt), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						v := (w*7 + i*3) % ds.G.NumVertices
						resp, err := http.Get(fmt.Sprintf("%s/predict?vertex=%d", ts.URL, v))
						if err != nil {
							errs <- err
							return
						}
						var pr PredictResponse
						err = json.NewDecoder(resp.Body).Decode(&pr)
						resp.Body.Close()
						if err != nil {
							errs <- err
							return
						}
						want := full.Row(v)
						for j := range want {
							if math.Float32bits(pr.Logits[j]) != math.Float32bits(want[j]) {
								errs <- fmt.Errorf("vertex %d col %d: %v != %v", v, j, pr.Logits[j], want[j])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestDeterministicAcrossServers: two servers loading the same checkpoint
// produce identical exact-mode logits — there is no hidden per-process
// state in the serving path.
func TestDeterministicAcrossServers(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	mk := func() *tensor.Matrix {
		srv, err := New(ds, bytes.NewReader(ckpt), Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		out, err := srv.Engine().Infer([]int32{4, 8, 15})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := mk(), mk()
	for i := 0; i < a.Rows; i++ {
		bitsEqual(t, a.Row(i), b.Row(i), "server A vs server B")
	}
}

// TestWarmPredictAllocBudget is the allocation budget of the warm read
// path: one exact /predict whose row is already in the embedding cache,
// through Server.Handler(), with the observability plane off, with the
// metrics registry, and with metrics plus per-request tracing. Allocation
// counts carry no timing noise, so a change that adds garbage to the hot
// path fails here even where a wall time could not resolve it. The three
// arms count what each obs level costs per request; that a nil handle
// costs exactly nothing is pinned in internal/obs (TestNilPlaneIsFree).
// The count includes the httptest recorder the response is written into.
func TestWarmPredictAllocBudget(t *testing.T) {
	ds, m, ckpt := trainedSageCheckpoint(t, 16, 2)
	want := m.Forward(ds.Features, false).Row(7)
	for _, arm := range []struct {
		name    string
		metrics bool
		trace   bool
		// budget is the measured count (go1.24, default and purego
		// builds) plus a margin of 3 that absorbs a toolchain's net/http or
		// encoding/json internals shifting by one or two.
		budget int
	}{
		{"off", false, false, 16},         // measured 13
		{"metrics", true, false, 20},      // measured 17
		{"metrics+trace", true, true, 27}, // measured 24
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := Config{
				Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
				MaxBatch: 8, FeatureCacheBytes: 1 << 20, EmbedCacheBytes: 1 << 20,
			}
			if arm.metrics {
				cfg.Metrics = obs.NewRegistry()
			}
			if arm.trace {
				cfg.Tracer = obs.NewTracer(obs.TracerConfig{Role: "server", Rank: -1})
			}
			srv, err := New(ds, bytes.NewReader(ckpt), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			req := httptest.NewRequest(http.MethodGet, "/predict?vertex=7", nil)
			var rec *httptest.ResponseRecorder
			serve := func() {
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, req)
			}
			serve() // cold: fills the embedding cache
			if rec.Code != http.StatusOK {
				t.Fatalf("cold /predict status %d: %s", rec.Code, rec.Body)
			}
			coalesced := srv.co.Stats().Requests

			allocs := testing.AllocsPerRun(100, serve)
			t.Logf("warm /predict, obs %s: %.0f allocs/op", arm.name, allocs)

			var pr PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, pr.Logits, want, "warm /predict vs full Forward")
			if n := srv.co.Stats().Requests; n != coalesced {
				t.Fatalf("warm /predict reached the coalescer (%d requests, want %d)", n, coalesced)
			}
			if raceEnabled {
				t.Skip("allocation counts differ under the race detector")
			}
			if allocs > float64(arm.budget) {
				t.Fatalf("warm /predict (obs %s) allocates %.0f times per request, budget %d",
					arm.name, allocs, arm.budget)
			}
		})
	}
}
