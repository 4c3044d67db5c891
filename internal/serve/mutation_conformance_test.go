package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"distgnn/internal/datasets"
	"distgnn/internal/graph"
)

// mutation_conformance_test.go is the tentpole pin: exact-mode serving on
// a mutated graph is bit-identical to a cold server that loaded the
// equivalent rebuilt-from-scratch CSR — across 1/2/4 shards, both
// transports, both architectures, and both before and after the overlay
// is compacted away. The fixture applies update batches through the real
// POST /update path on one entry rank (fan-out to peers rides the comm
// plane), queries between batches so the caches are warm when the next
// invalidation sweep runs, and compares every rank's logits after every
// batch against a reference server built cold on that prefix's graph.

// mutatedDataset clones ds with its graph replaced by a CSR rebuilt from
// scratch over the base edges plus the inserted prefix — what a cold
// process loading the post-mutation graph would hold.
func mutatedDataset(t *testing.T, ds *datasets.Dataset, inserted []graph.Edge) *datasets.Dataset {
	t.Helper()
	edges := append(ds.G.Edges(), inserted...)
	g, err := graph.NewCSR(ds.G.NumVertices, edges)
	if err != nil {
		t.Fatal(err)
	}
	out := *ds
	out.G = g
	return &out
}

// postUpdate drives one batch through POST /update on srv and returns the
// decoded response.
func postUpdate(t *testing.T, srv *Server, batch []graph.Edge) UpdateResponse {
	t.Helper()
	req := UpdateRequest{}
	for _, e := range batch {
		req.Edges = append(req.Edges, [2]int32{e.Src, e.Dst})
	}
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body))
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("/update status %d: %s", w.Code, w.Body.Bytes())
	}
	var resp UpdateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// mutationBatches draws deterministic insert batches over ds's vertex
// space: edges concentrated around the probe set so the invalidation
// sweep and the cached probe rows actually collide.
func mutationBatches(ds *datasets.Dataset, nBatches, perBatch int) [][]graph.Edge {
	rng := rand.New(rand.NewSource(31))
	n := ds.G.NumVertices
	out := make([][]graph.Edge, nBatches)
	for b := range out {
		batch := make([]graph.Edge, perBatch)
		for i := range batch {
			batch[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		out[b] = batch
	}
	return out
}

// conformanceProbe is the query set: a spread of fixed vertices plus the
// destinations every batch touches (guaranteed-affected rows).
func conformanceProbe(ds *datasets.Dataset, batches [][]graph.Edge) []int32 {
	seen := map[int32]bool{}
	var probe []int32
	add := func(v int32) {
		if !seen[v] {
			seen[v] = true
			probe = append(probe, v)
		}
	}
	for _, v := range []int32{0, 1, 7, int32(ds.G.NumVertices / 2), int32(ds.G.NumVertices - 1)} {
		add(v)
	}
	for _, b := range batches {
		for _, e := range b {
			add(e.Dst)
		}
	}
	return probe
}

// TestMutationConformance is the acceptance pin described above.
func TestMutationConformance(t *testing.T) {
	const (
		nBatches = 3
		perBatch = 5
	)
	for _, arch := range []Arch{ArchGraphSAGE, ArchGAT} {
		ds, _, ckpt, cfg := shardFixture(t, arch)
		batches := mutationBatches(ds, nBatches, perBatch)
		probe := conformanceProbe(ds, batches)

		// One cold reference server per update prefix: refs[b] serves the
		// graph after batches[0..b] rebuilt from scratch.
		refs := make([][][]float32, nBatches)
		var prefix []graph.Edge
		for b := 0; b < nBatches; b++ {
			prefix = append(prefix, batches[b]...)
			refDS := mutatedDataset(t, ds, prefix)
			refSrv, err := New(refDS, bytes.NewReader(ckpt), cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := refSrv.Engine().Infer(probe)
			if err != nil {
				t.Fatal(err)
			}
			refs[b] = make([][]float32, len(probe))
			for i := range probe {
				refs[b][i] = append([]float32(nil), out.Row(i)...)
			}
			refSrv.Close()
		}

		mcfg := cfg
		mcfg.EnableUpdates = true
		mcfg.CompactThreshold = -1 // explicit compaction below, so pre/post is deterministic
		mcfg.EmbedCacheBytes = 1 << 20

		for _, transport := range []string{"inproc", "tcp"} {
			for _, shards := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/%d-shard", arch, transport, shards)
				fleet := startFleet(t, ds, ckpt, mcfg, Topology{Shards: shards, Fabric: Fabric(transport), RemoteCacheBytes: 1 << 20})

				checkAll := func(stage string, want [][]float32) {
					for r, srv := range fleet.Servers {
						out, err := srv.Engine().Infer(probe)
						if err != nil {
							t.Fatalf("%s %s rank %d: %v", name, stage, r, err)
						}
						for i, v := range probe {
							bitsEqual(t, out.Row(i), want[i],
								fmt.Sprintf("%s %s rank %d vertex %d vs cold rebuild", name, stage, r, v))
						}
					}
				}

				for b := 0; b < nBatches; b++ {
					// Warm the caches with the pre-batch graph so the
					// invalidation sweep has stale rows to kill, then apply
					// the batch on the entry rank and re-check every rank.
					resp := postUpdate(t, fleet.Servers[0], batches[b])
					if resp.Applied != perBatch {
						t.Fatalf("%s batch %d: applied %d, want %d", name, b, resp.Applied, perBatch)
					}
					if len(resp.Ranks) != shards {
						t.Fatalf("%s batch %d: %d rank acks, want %d", name, b, len(resp.Ranks), shards)
					}
					checkAll(fmt.Sprintf("batch %d (overlay)", b), refs[b])
				}

				// Compact every rank's overlay into a fresh base CSR; the
				// post-compaction bits must not move.
				for r, srv := range fleet.Servers {
					pre := srv.upd.mut.Snapshot()
					if pre.OverlayEdges() != nBatches*perBatch {
						t.Fatalf("%s rank %d: overlay holds %d edges, want %d",
							name, r, pre.OverlayEdges(), nBatches*perBatch)
					}
					post := srv.upd.mut.Compact()
					if post.OverlayEdges() != 0 {
						t.Fatalf("%s rank %d: overlay survived compaction", name, r)
					}
				}
				checkAll("post-compaction", refs[nBatches-1])

				// The stream stats must reflect what happened. Every rank
				// applied every batch (fan-out), so the counters agree.
				for r, srv := range fleet.Servers {
					str := srv.StatsSnapshot().Stream
					if str == nil {
						t.Fatalf("%s rank %d: no stream stats", name, r)
					}
					if str.Updates != nBatches || str.EdgesApplied != int64(nBatches*perBatch) {
						t.Fatalf("%s rank %d: stream counts %d updates / %d edges, want %d / %d",
							name, r, str.Updates, str.EdgesApplied, nBatches, nBatches*perBatch)
					}
					if str.Compactions != 1 || str.OverlayEdges != 0 {
						t.Fatalf("%s rank %d: %d compactions, overlay %d",
							name, r, str.Compactions, str.OverlayEdges)
					}
				}
				fleet.Close()
			}
		}

		// A cold 2-shard fleet on the rebuilt final graph agrees with the
		// mutated fleets (the "cold fleet" form of the acceptance pin),
		// even partitioned from another seed: bits never depend on owners.
		finalDS := mutatedDataset(t, ds, prefix)
		cold := startFleet(t, finalDS, ckpt, cfg, Topology{Shards: 2, RemoteCacheBytes: 1 << 20, PartitionSeed: 2})
		for r, srv := range cold.Servers {
			out, err := srv.Engine().Infer(probe)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range probe {
				bitsEqual(t, out.Row(i), refs[nBatches-1][i],
					fmt.Sprintf("%s cold 2-shard rank %d vertex %d", arch, r, v))
			}
		}
		cold.Close()
	}
}
