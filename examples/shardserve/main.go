// Sharded-serving walkthrough: train GraphSAGE, save the checkpoint, stand
// up a 2-shard serving fleet — each rank owning one vertex partition and
// its feature slice, halo features crossing a real loopback-TCP comm fabric
// — and query BOTH ranks over HTTP for the same vertex: the router sends
// each request to its owner rank and the logits come back bit-identical
// from either entry point, and identical to a single-process server.
// -scale and -epochs shrink the run for smoke testing.
//
// The same fleet as real processes:
//
//	distgnn-serve -checkpoint ckpt.dgnp -shards 2 -transport tcp -spawn-local ...
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"distgnn/internal/comm"
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

	// 2. A real TCP comm fabric over 2 ranks (loopback; each endpoint is
	//    driven exactly as a separate OS process would drive its own).
	const shards = 2
	fabrics, err := comm.NewLoopbackTCP(shards, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, f := range fabrics {
			f.Close()
		}
	}()

	// 3. One HTTP listener per rank, then one sharded server per rank. Each
	//    rank independently derives the same deterministic partitioning, so
	//    ownership needs no coordination.
	cfg := serve.Config{
		Arch: serve.ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		MaxBatch: 16, MaxWait: 2 * time.Millisecond,
		FeatureCacheBytes: 16 << 20, EmbedCacheBytes: 4 << 20,
	}
	var lns []net.Listener
	var peers []serve.PeerAddr
	for r := 0; r < shards; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns = append(lns, ln)
		peers = append(peers, serve.PeerAddr{Rank: r, Addr: ln.Addr().String()})
	}
	servers := make([]*serve.Server, shards)
	for r := 0; r < shards; r++ {
		servers[r], err = serve.NewShard(ds, bytes.NewReader(ckpt.Bytes()), cfg, serve.ShardConfig{
			Transport: fabrics[r], HTTPPeers: peers,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer servers[r].Close()
		st := servers[r].StatsSnapshot().Shard
		fmt.Printf("shard rank %d/%d: owns %d vertices, static halo %d, serving on http://%s\n",
			r, shards, st.OwnedVertices, st.HaloVerticesStatic, peers[r].Addr)
		hs := &http.Server{Handler: servers[r].Handler()}
		go hs.Serve(lns[r])
		defer hs.Close()
	}

	// 4. Query BOTH ranks for the same vertex. The non-owner proxies to the
	//    owner; the owner's k-hop gather fetches halo features over TCP.
	get := func(rank int, path string) string {
		resp, err := http.Get("http://" + peers[rank].Addr + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("rank %d %s: HTTP %d: %s", rank, path, resp.StatusCode, body)
		}
		return string(body)
	}
	const vertex = 7
	a := get(0, fmt.Sprintf("/predict?vertex=%d", vertex))
	b := get(1, fmt.Sprintf("/predict?vertex=%d", vertex))
	fmt.Printf("GET rank0 /predict?vertex=%d → %.110s…\n", vertex, a)
	fmt.Printf("GET rank1 /predict?vertex=%d → identical bytes: %v\n", vertex, a == b)
	if a != b {
		log.Fatalf("rank responses differ:\n%s\n%s", a, b)
	}

	// 5. A single-process server on the same checkpoint agrees bit for bit.
	single, err := serve.New(ds, bytes.NewReader(ckpt.Bytes()), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer single.Close()
	out, err := single.Engine().Infer([]int32{vertex})
	if err != nil {
		log.Fatal(err)
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal([]byte(a), &pr); err != nil {
		log.Fatal(err)
	}
	same := len(pr.Logits) == len(out.Row(0))
	for j := range pr.Logits {
		same = same && pr.Logits[j] == out.Row(0)[j]
	}
	fmt.Printf("sharded logits == single-process logits: %v\n", same)
	if !same {
		log.Fatal("sharded serving diverged from the single-process engine")
	}

	// 6. The shard counters show the distribution at work.
	for r := 0; r < shards; r++ {
		var st serve.Stats
		if err := json.Unmarshal([]byte(get(r, "/stats")), &st); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rank %d stats: predicts %d, routed out %d, halo fetches %d (%d vertices), peer-served %d\n",
			r, st.Predicts, st.Shard.RoutedOut, st.Shard.HaloFetches,
			st.Shard.HaloFetchedVertices, st.Shard.PeerServedFetches)
	}
}
