package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/obs"
	"distgnn/internal/tensor"
)

// trainedGATCheckpoint trains a small GAT for a few steps and returns the
// dataset, its full-graph forward output, the serialized checkpoint, and
// the matching serve Config — the GAT arm of the conformance fixtures.
func trainedGATCheckpoint(t *testing.T) (*datasets.Dataset, *tensor.Matrix, []byte, Config) {
	t.Helper()
	ds, err := datasets.Load("reddit-sim", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	heads := 2
	out := ((ds.NumClasses + heads - 1) / heads) * heads
	gat, err := model.NewGAT(ds.G, model.GATConfig{
		InDim: ds.Features.Cols, Hidden: 16, OutDim: out,
		NumLayers: 2, NumHeads: heads, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	adam := nn.NewAdam(0.01, 0)
	params := gat.Params()
	for e := 0; e < 2; e++ {
		logits := gat.Forward(ds.Features, true)
		_, dlogits := nn.MaskedCrossEntropy(logits, ds.Labels, ds.TrainIdx)
		nn.ZeroGrads(params)
		gat.Backward(dlogits)
		adam.Step(params)
	}
	var buf bytes.Buffer
	if err := nn.WriteParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Arch: ArchGAT, Hidden: 16, NumLayers: 2, NumHeads: heads, OutDim: out}
	return ds, gat.Forward(ds.Features, false), buf.Bytes(), cfg
}

// shardFixture returns one architecture's conformance fixture: dataset,
// full-graph reference logits, checkpoint, serve config.
func shardFixture(t *testing.T, arch Arch) (*datasets.Dataset, *tensor.Matrix, []byte, Config) {
	t.Helper()
	if arch == ArchGAT {
		return trainedGATCheckpoint(t)
	}
	ds, m, ckpt := trainedSageCheckpoint(t, 16, 2)
	return ds, m.Forward(ds.Features, false), ckpt, Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}
}

// startFleet is StartFleet that fails the test on error.
func startFleet(t *testing.T, ds *datasets.Dataset, ckpt []byte, cfg Config, top Topology) *Fleet {
	t.Helper()
	fl, err := StartFleet(ds, ckpt, cfg, top)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestCrossShardServingConformance is the acceptance pin: exact-mode logits
// from every rank of a 1-, 2-, and 4-shard engine are bit-identical to the
// full-graph forward pass — over both transports, both architectures, and
// both the cold path (halo features crossing the fabric) and the warm path
// (halo features served from the remote cache).
func TestCrossShardServingConformance(t *testing.T) {
	for _, arch := range []Arch{ArchGraphSAGE, ArchGAT} {
		ds, full, ckpt, cfg := shardFixture(t, arch)
		cfg.FeatureCacheBytes = 1 << 20 // each rank's halo LRU
		probe := []int32{0, 1, 5, 17, int32(ds.G.NumVertices / 2), int32(ds.G.NumVertices - 1)}
		for _, transport := range []string{"inproc", "tcp"} {
			for _, shards := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/%d-shard", arch, transport, shards)
				fleet := startFleet(t, ds, ckpt, cfg, Topology{Shards: shards, Fabric: Fabric(transport)})
				for r, srv := range fleet.Servers {
					// Cold pass: every halo feature crosses the fabric.
					out, err := srv.Engine().Infer(probe)
					if err != nil {
						t.Fatalf("%s rank %d: %v", name, r, err)
					}
					for i, v := range probe {
						bitsEqual(t, out.Row(i), full.Row(int(v)),
							fmt.Sprintf("%s rank %d cold vs full Forward (vertex %d)", name, r, v))
					}
					// Warm pass: the remote cache now holds the halo rows.
					out, err = srv.Engine().Infer(probe)
					if err != nil {
						t.Fatalf("%s rank %d warm: %v", name, r, err)
					}
					for i, v := range probe {
						bitsEqual(t, out.Row(i), full.Row(int(v)),
							fmt.Sprintf("%s rank %d warm vs full Forward (vertex %d)", name, r, v))
					}
					st := srv.StatsSnapshot().Shard
					if st == nil {
						t.Fatalf("%s rank %d: no shard stats", name, r)
					}
					if shards > 1 {
						if st.HaloFetches == 0 || st.HaloMisses == 0 {
							t.Fatalf("%s rank %d: remote path never exercised: %+v", name, r, st)
						}
						if st.HaloHits == 0 {
							t.Fatalf("%s rank %d: warm pass hit no cached halo rows: %+v", name, r, st)
						}
					} else if st.HaloFetches != 0 {
						t.Fatalf("%s: single shard fetched remotely: %+v", name, st)
					}
				}
				// Over HTTP, the rank a request reaches serves it: its own
				// predict counter moves and no other rank's does.
				for r := range fleet.Servers {
					for _, v := range probe {
						want := predictCounts(fleet.Servers)
						want[r]++
						pr, _ := getPredict(t, fleet.Addrs[r], v)
						bitsEqual(t, pr.Logits, full.Row(int(v)),
							fmt.Sprintf("%s rank %d HTTP /predict vertex %d vs full Forward", name, r, v))
						for q, got := range predictCounts(fleet.Servers) {
							if got != want[q] {
								t.Fatalf("%s: vertex %d sent to rank %d: rank %d predicts %d, want %d",
									name, v, r, q, got, want[q])
							}
						}
					}
				}
				fleet.Close()
			}
		}
	}
}

// TestEndToEndTwoShardTCPServe is the integration satellite: train →
// checkpoint → 2-shard fleet over real TCP comm + real HTTP listeners →
// /predict on BOTH ranks, asserting the logits are bit-identical to a
// single-process server loading the same checkpoint. Table-driven over
// GraphSAGE and GAT.
func TestEndToEndTwoShardTCPServe(t *testing.T) {
	for _, arch := range []Arch{ArchGraphSAGE, ArchGAT} {
		t.Run(string(arch), func(t *testing.T) {
			ds, full, ckpt, cfg := shardFixture(t, arch)
			single, err := New(ds, bytes.NewReader(ckpt), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()

			scfg := cfg
			scfg.FeatureCacheBytes = 1 << 20 // each rank's halo LRU
			fleet := startFleet(t, ds, ckpt, scfg, Topology{Shards: 2, Fabric: FabricTCP})
			defer fleet.Close()

			probe := []int32{2, 9, 33, int32(ds.G.NumVertices - 2)}
			for _, v := range probe {
				ref, err := single.Engine().Infer([]int32{v})
				if err != nil {
					t.Fatal(err)
				}
				bitsEqual(t, ref.Row(0), full.Row(int(v)), "single-process reference")
				var bodies [][]byte
				for r := range fleet.Servers {
					before := fleet.Servers[r].StatsSnapshot().Predicts
					pr, body := getPredict(t, fleet.Addrs[r], v)
					bitsEqual(t, pr.Logits, ref.Row(0),
						fmt.Sprintf("rank %d HTTP /predict vertex %d vs single-process", r, v))
					if got := fleet.Servers[r].StatsSnapshot().Predicts; got != before+1 {
						t.Fatalf("rank %d did not serve vertex %d itself: predicts %d → %d", r, v, before, got)
					}
					bodies = append(bodies, body)
				}
				if !bytes.Equal(bodies[0], bodies[1]) {
					t.Fatalf("vertex %d: rank responses differ:\n%s\n%s", v, bodies[0], bodies[1])
				}
			}
		})
	}
}

// getPredict GETs /predict?vertex=v from the server at addr, failing the
// test on anything but a 200, and returns the decoded and the raw body.
func getPredict(t *testing.T, addr string, v int32) (PredictResponse, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/predict?vertex=%d", addr, v))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s vertex %d: status %d: %s", addr, v, resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	return pr, body
}

// predictCounts snapshots every server's /predict counter.
func predictCounts(servers []*Server) []int64 {
	out := make([]int64, len(servers))
	for i, srv := range servers {
		out[i] = srv.StatsSnapshot().Predicts
	}
	return out
}

// TestShardRaceConcurrentCrossShardFanOut drives the coalescer, the remote
// halo cache, and the fetch protocol from concurrent clients on both ranks
// at once — the race-mode satellite. The remote cache budget is tiny so
// concurrent gathers race Get/Put/evict on the same shard locks, and every
// response must still carry the vertex's own bit-exact logits.
func TestShardRaceConcurrentCrossShardFanOut(t *testing.T) {
	ds, m, ckpt := trainedSageCheckpoint(t, 16, 2)
	cfg := Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		MaxBatch: 8, MaxWait: time.Millisecond, EmbedCacheBytes: 1 << 18, FeatureCacheBytes: 1 << 15}
	fleet := startFleet(t, ds, ckpt, cfg, Topology{Shards: 2})
	defer fleet.Close()
	// The concurrent gets below can leave a dialed, never-used connection
	// in this client's pool, which the fleet's Shutdown would wait 5 s on.
	defer http.DefaultClient.CloseIdleConnections()
	full := m.Forward(ds.Features, false)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				v := (w*13 + i*7) % ds.G.NumVertices
				// Alternate entry rank so both routing directions and both
				// coalescers run concurrently.
				entry := (w + i) % 2
				if i%3 == 2 {
					// Direct engine path races the HTTP path on the same caches.
					out, err := fleet.Servers[entry].Engine().Infer([]int32{int32(v)})
					if err != nil {
						errs <- err
						return
					}
					if err := rowsMatch(out.Row(0), full.Row(v)); err != nil {
						errs <- fmt.Errorf("engine rank %d vertex %d: %w", entry, v, err)
						return
					}
					continue
				}
				resp, err := http.Get(fmt.Sprintf("http://%s/predict?vertex=%d", fleet.Addrs[entry], v))
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
				if err := rowsMatch(pr.Logits, full.Row(v)); err != nil {
					errs <- fmt.Errorf("HTTP rank %d vertex %d: %w", entry, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The tiny budget must actually have caused cache churn somewhere.
	var puts int64
	for _, srv := range fleet.Servers {
		puts += srv.StatsSnapshot().Shard.RemoteCache.Puts
	}
	if puts == 0 {
		t.Fatal("remote cache never exercised under fan-out")
	}
}

// rowsMatch is bitsEqual as an error (for goroutine use).
func rowsMatch(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d != %d", len(got), len(want))
	}
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			return fmt.Errorf("col %d: %v (%#x) != %v (%#x)",
				j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
		}
	}
	return nil
}

// TestShardNetStatsPerRank pins per-shard fabric accounting on an
// in-process fleet: each shard's distgnn_net_sent_bytes_total counts only
// the payload that shard sent — its halo requests and the replies it
// served — and the per-shard figures sum to the fabric's totals.
func TestShardNetStatsPerRank(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	regs := make([]*obs.Registry, 2)
	fleet := startFleet(t, ds, ckpt, Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}, Topology{
		Shards: 2,
		Obs: func(_ string, rank int, _ string) (*obs.Registry, *obs.Tracer) {
			regs[rank] = obs.NewRegistry()
			return regs[rank], nil
		},
	})
	defer fleet.Close()
	srvs := fleet.Servers
	probe := make([]int32, 40)
	for i := range probe {
		probe[i] = int32(i * ds.G.NumVertices / len(probe))
	}
	for r, srv := range srvs {
		if _, err := srv.Engine().Infer(probe); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	scrape := func(reg *obs.Registry, name string) int64 {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("%s value %q: %v", name, v, err)
				}
				return n
			}
		}
		t.Fatalf("metric %s not exported", name)
		return 0
	}
	var sent, recv int64
	for r, srv := range srvs {
		st := srv.StatsSnapshot().Shard
		// A request is the id word plus one word per vertex; a reply the
		// status word plus the served rows.
		own := 4*(st.HaloFetches+st.HaloFetchedVertices) + 4*st.PeerServedFetches + st.PeerServedBytes
		if own == 0 {
			t.Fatalf("rank %d never used the fabric: %+v", r, st)
		}
		if got := scrape(regs[r], "distgnn_net_sent_bytes_total"); got != own {
			t.Fatalf("rank %d reports %d sent bytes, its own sends are %d", r, got, own)
		}
		sent += scrape(regs[r], "distgnn_net_sent_bytes_total")
		recv += scrape(regs[r], "distgnn_net_recv_bytes_total")
	}
	if sent != recv {
		t.Fatalf("per-shard sends sum to %d bytes, per-shard receives to %d", sent, recv)
	}
}

// TestShardModeRejectsMisconfiguration pins the fail-fast contract for the
// sharded constructor.
func TestShardModeRejectsMisconfiguration(t *testing.T) {
	ds, _, ckpt := trainedSageCheckpoint(t, 16, 2)
	cfg := Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2}
	eps := comm.NewProcFabric(2)
	defer comm.CloseAll(eps)
	cases := []struct {
		name string
		cfg  Config
		sc   ShardConfig
	}{
		{"sampled", Config{Arch: ArchGraphSAGE, Hidden: 16, NumLayers: 2, Fanouts: []int{5, 5}},
			ShardConfig{Transport: eps[0]}},
		{"no transport", cfg, ShardConfig{}},
	}
	for _, tc := range cases {
		if _, err := NewShard(ds, bytes.NewReader(ckpt), tc.cfg, tc.sc); err == nil {
			t.Fatalf("%s: misconfiguration accepted", tc.name)
		}
	}
}
