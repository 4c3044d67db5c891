// Sharded-serving walkthrough: train GraphSAGE, save the checkpoint, stand
// up a 2-shard serving fleet — each rank owning one vertex partition and
// its feature slice, halo features crossing a real loopback-TCP comm fabric
// — and query BOTH ranks over HTTP for the same vertex: the router sends
// each request to its owner rank and the logits come back bit-identical
// from either entry point, and identical to a single-process server.
// -scale and -epochs shrink the run for smoke testing.
//
// serve.StartFleet, the one way to stand up an in-process fleet, builds it;
// the same fleet as real processes:
//
//	distgnn-serve -checkpoint ckpt.dgnp -shards 2 -transport tcp -spawn-local ...
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/serve"
	"distgnn/internal/train"
)

func main() {
	scale := flag.Float64("scale", 0.25, "dataset scale factor")
	epochs := flag.Int("epochs", 20, "training epochs")
	flag.Parse()

	// 1. Train and serialize a checkpoint, exactly like the serving example.
	ds, err := datasets.Load("reddit-sim", *scale)
	if err != nil {
		log.Fatal(err)
	}
	res, err := train.SingleSocket(ds, train.SingleConfig{
		Model:  model.Config{Hidden: 16, NumLayers: 2, Seed: 1},
		Epochs: *epochs, LR: 0.02, WeightDecay: 5e-4, UseAdam: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := nn.WriteParams(&ckpt, res.Model.Params()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %d epochs, test accuracy %.1f%%\n", *epochs, 100*res.TestAcc)

	// 2. A 2-rank fleet in one call: each rank a sharded server over its
	//    endpoint of a real loopback-TCP comm fabric (driven exactly as a
	//    separate OS process would drive it) and on its own HTTP listener.
	//    Every rank derives the same deterministic partitioning, so
	//    ownership needs no coordination.
	cfg := serve.Config{
		Arch: serve.ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		MaxBatch: 16, MaxWait: 2 * time.Millisecond,
		FeatureCacheBytes: 16 << 20, EmbedCacheBytes: 4 << 20,
	}
	fleet, err := serve.StartFleet(ds, ckpt.Bytes(), cfg, serve.Topology{Shards: 2, Fabric: serve.FabricTCP})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()

	// 3. Query BOTH ranks for the same vertex, and a single-process server
	//    (a 1-shard fleet) on the same checkpoint. The non-owner rank
	//    proxies to the owner; the owner's k-hop gather fetches halo
	//    features over TCP; all three answers are the same bytes.
	single, err := serve.StartFleet(ds, ckpt.Bytes(), cfg, serve.Topology{})
	if err != nil {
		log.Fatal(err)
	}
	defer single.Close()
	const path = "/predict?vertex=7"
	var answers []string
	for _, addr := range append(fleet.Addrs, single.Addrs[0]) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			log.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			log.Fatalf("%s%s: HTTP %d: %s (%v)", addr, path, resp.StatusCode, body, err)
		}
		answers = append(answers, string(body))
	}
	fmt.Printf("GET rank0 %s → %.110s…\n", path, answers[0])
	fmt.Printf("rank1 and single-process answers identical bytes: %v, %v\n",
		answers[1] == answers[0], answers[2] == answers[0])
	if answers[1] != answers[0] || answers[2] != answers[0] {
		log.Fatalf("answers differ:\n%s", strings.Join(answers, "\n"))
	}

	// 4. The shard counters show the distribution at work.
	for r, srv := range fleet.Servers {
		st := srv.StatsSnapshot()
		fmt.Printf("rank %d on http://%s: owns %d vertices, predicts %d, routed out %d, halo fetches %d (%d vertices), peer-served %d\n",
			r, fleet.Addrs[r], st.Shard.OwnedVertices, st.Predicts, st.Shard.RoutedOut,
			st.Shard.HaloFetches, st.Shard.HaloFetchedVertices, st.Shard.PeerServedFetches)
	}
}
