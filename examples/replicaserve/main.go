// Replicated-serving walkthrough: train GraphSAGE, stand up TWO
// bit-identical 2-shard serving fleets behind the consistent-hash frontend,
// and drive the failure story end to end: queries through the frontend are
// bit-identical to a single-process server; hard-killing a whole replica
// fleet mid-run surfaces zero errors (the frontend fails over to the
// survivor); and a fleet-wide POST /reload hot-swaps every replica to a
// retrained checkpoint without dropping a request. -scale and -epochs
// shrink the run for smoke testing.
//
// The same topology as real processes:
//
//	distgnn-serve -checkpoint ckpt.dgnp -shards 2 -replicas 2 -transport tcp -spawn-local -reload ...
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

const (
	shards   = 2
	replicas = 2
)

func main() {
	scale := flag.Float64("scale", 0.25, "dataset scale factor")
	epochs := flag.Int("epochs", 20, "training epochs")
	flag.Parse()

	// 1. Train two checkpoints of the same architecture: the one the fleet
	//    starts on, and a longer-trained one for the live rollover.
	ds, err := datasets.Load("reddit-sim", *scale)
	if err != nil {
		log.Fatal(err)
	}
	trainCkpt := func(ep int) []byte {
		res, err := train.SingleSocket(ds, train.SingleConfig{
			Model:  model.Config{Hidden: 16, NumLayers: 2, Seed: 1},
			Epochs: ep, LR: 0.02, WeightDecay: 5e-4, UseAdam: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nn.WriteParams(&buf, res.Model.Params()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained: %d epochs, test accuracy %.1f%%\n", ep, 100*res.TestAcc)
		return buf.Bytes()
	}
	ckptA := trainCkpt(*epochs)
	ckptB := trainCkpt(*epochs + 1)

	// 2. Two bit-identical shard fleets (same checkpoint, same deterministic
	//    partitioning), each over its own in-process comm fabric, every rank
	//    on a real HTTP listener.
	cfg := serve.Config{
		Arch: serve.ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		MaxBatch: 16, MaxWait: 2 * time.Millisecond,
		FeatureCacheBytes: 16 << 20, EnableReload: true,
	}
	groups := make([]serve.GroupSpec, shards)
	for g := range groups {
		groups[g].Key = fmt.Sprintf("group-%d", g)
	}
	fleetHTTP := make([][]*http.Server, replicas)
	for rep := 0; rep < replicas; rep++ {
		eps := comm.NewProcFabric(shards)
		defer comm.CloseAll(eps)
		var lns []net.Listener
		var peers []serve.PeerAddr
		for r := 0; r < shards; r++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			lns = append(lns, ln)
			peers = append(peers, serve.PeerAddr{Rank: r, Addr: ln.Addr().String()})
			groups[r].Replicas = append(groups[r].Replicas, ln.Addr().String())
		}
		for r := 0; r < shards; r++ {
			srv, err := serve.NewShard(ds, bytes.NewReader(ckptA), cfg, serve.ShardConfig{
				Transport: eps[r], HTTPPeers: peers,
			})
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			hs := &http.Server{Handler: srv.Handler()}
			fleetHTTP[rep] = append(fleetHTTP[rep], hs)
			go hs.Serve(lns[r])
			defer hs.Close()
			fmt.Printf("replica %d rank %d/%d serving on http://%s\n", rep, r, shards, peers[r].Addr)
		}
	}

	// 3. The consistent-hash frontend: vertices hash to a shard group,
	//    requests load-balance across the group's replicas (power of two
	//    choices by in-flight depth) and fail over when one dies.
	frontend, err := serve.NewFrontend(serve.FrontendConfig{
		Groups: groups, MaxFails: 2, ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer frontend.Close()
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fhs := &http.Server{Handler: frontend.Handler()}
	go fhs.Serve(fln)
	defer fhs.Close()
	addr := fln.Addr().String()
	fmt.Printf("frontend: %d groups × %d replicas on http://%s\n", shards, replicas, addr)

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	// 4. Frontend answers are bit-identical to a single-process server on
	//    the same checkpoint.
	single, err := serve.New(ds, bytes.NewReader(ckptA), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer single.Close()
	const vertex = 7
	before := get(fmt.Sprintf("/predict?vertex=%d", vertex))
	out, err := single.Engine().Infer([]int32{vertex})
	if err != nil {
		log.Fatal(err)
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal([]byte(before), &pr); err != nil {
		log.Fatal(err)
	}
	same := len(pr.Logits) == len(out.Row(0))
	for j := range pr.Logits {
		same = same && pr.Logits[j] == out.Row(0)[j]
	}
	fmt.Printf("frontend logits == single-process logits: %v\n", same)
	if !same {
		log.Fatal("replicated serving diverged from the single-process engine")
	}

	// 5. Kill replica 0 outright. Every request keeps succeeding — and the
	//    survivor's answers are the same bytes, because replicas are
	//    bit-identical by construction.
	for _, hs := range fleetHTTP[0] {
		hs.Close()
	}
	fmt.Println("replica 0 killed (both ranks)")
	for i := 0; i < 20; i++ {
		get(fmt.Sprintf("/predict?vertex=%d", i%ds.G.NumVertices))
	}
	after := get(fmt.Sprintf("/predict?vertex=%d", vertex))
	fmt.Printf("post-kill answers identical bytes: %v\n", before == after)
	if before != after {
		log.Fatal("failover changed the answer")
	}
	var fst serve.FrontendStats
	if err := json.Unmarshal([]byte(get("/stats")), &fst); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frontend stats: requests %d, retries %d, errors %d (must be 0)\n",
		fst.Requests, fst.Retries, fst.Errors)
	if fst.Errors != 0 {
		log.Fatal("failover surfaced errors")
	}

	// 6. Live rollover on the surviving replica: POST /reload fans the new
	//    checkpoint to every live replica; answers flip to the new model.
	survivors := make([]serve.GroupSpec, shards)
	for g := range survivors {
		survivors[g] = serve.GroupSpec{
			Key:      fmt.Sprintf("group-%d", g),
			Replicas: []string{groups[g].Replicas[1]},
		}
	}
	f2, err := serve.NewFrontend(serve.FrontendConfig{Groups: survivors})
	if err != nil {
		log.Fatal(err)
	}
	defer f2.Close()
	f2ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	f2hs := &http.Server{Handler: f2.Handler()}
	go f2hs.Serve(f2ln)
	defer f2hs.Close()
	resp, err := http.Post("http://"+f2ln.Addr().String()+"/reload",
		"application/octet-stream", bytes.NewReader(ckptB))
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("/reload: HTTP %d: %s", resp.StatusCode, body)
	}
	fmt.Printf("fleet /reload: %.90s…\n", body)
	rolled := get(fmt.Sprintf("/predict?vertex=%d", vertex))
	fmt.Printf("post-rollover logits changed: %v\n", rolled != before)
	if rolled == before {
		log.Fatal("reload did not change the serving model")
	}
}
