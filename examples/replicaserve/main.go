// Replicated-serving walkthrough: train GraphSAGE, stand up TWO
// bit-identical 2-shard serving fleets behind the consistent-hash frontend,
// and drive the failure story end to end: queries through the frontend are
// bit-identical to a single-process server; hard-killing a whole replica
// fleet mid-run surfaces zero errors (the frontend fails over to the
// survivor); and a fleet-wide POST /reload hot-swaps every replica to a
// retrained checkpoint without dropping a request. -scale and -epochs
// shrink the run for smoke testing.
//
// serve.StartFleet, the one way to stand up an in-process fleet, builds it;
// the same topology as real processes:
//
//	distgnn-serve -checkpoint ckpt.dgnp -shards 2 -replicas 2 -transport tcp -spawn-local -reload ...
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/serve"
	"distgnn/internal/train"
)

const shards, replicas = 2, 2

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

	// 2. Two bit-identical 2-shard fleets (same checkpoint and partitioning),
	//    each over its own in-process fabric with every rank on a real HTTP
	//    listener, behind the consistent-hash frontend: vertices hash to a
	//    shard group, whose replicas share load by power of two choices (by
	//    in-flight depth) and fail over when one dies.
	cfg := serve.Config{
		Arch: serve.ArchGraphSAGE, Hidden: 16, NumLayers: 2,
		MaxBatch: 16, MaxWait: 2 * time.Millisecond,
		FeatureCacheBytes: 16 << 20, EnableReload: true,
	}
	fleet, err := serve.StartFleet(ds, ckptA, cfg, serve.Topology{
		Shards: shards, Replicas: replicas, Frontend: "127.0.0.1:0",
		FrontendConfig: serve.FrontendConfig{MaxFails: 2, ProbeInterval: 100 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	fmt.Printf("frontend on http://%s over %d groups × %d replicas, backends (replica-major) %v\n",
		fleet.FrontendAddr, shards, replicas, fleet.Addrs)

	// fetch GETs addr+path, or POSTs body there when there is one.
	fetch := func(addr, path string, body []byte) string {
		method := http.MethodGet
		if body != nil {
			method = http.MethodPost
		}
		req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			log.Fatalf("%s%s: HTTP %d: %s (%v)", addr, path, resp.StatusCode, reply, err)
		}
		return string(reply)
	}
	predict := func(v int) string { return fetch(fleet.FrontendAddr, fmt.Sprintf("/predict?vertex=%d", v), nil) }

	// 3. Frontend answers are the same bytes as a single-process server's
	//    (a 1-shard fleet) on the same checkpoint.
	single, err := serve.StartFleet(ds, ckptA, cfg, serve.Topology{})
	if err != nil {
		log.Fatal(err)
	}
	defer single.Close()
	const vertex = 7
	before := predict(vertex)
	same := before == fetch(single.Addrs[0], fmt.Sprintf("/predict?vertex=%d", vertex), nil)
	fmt.Printf("frontend answer == single-process answer: %v\n", same)
	if !same {
		log.Fatal("replicated serving diverged from the single-process engine")
	}

	// 4. Kill replica 0 outright. Every request keeps succeeding — and the
	//    survivor's answers are the same bytes, because replicas are
	//    bit-identical by construction.
	fleet.Kill(0)
	fmt.Println("replica 0 killed (both ranks)")
	for i := 0; i < 20; i++ {
		predict(i % ds.G.NumVertices)
	}
	after := predict(vertex)
	fmt.Printf("post-kill answers identical bytes: %v\n", before == after)
	if before != after {
		log.Fatal("failover changed the answer")
	}
	fst := fleet.Frontend.StatsSnapshot()
	fmt.Printf("frontend stats: requests %d, retries %d, errors %d (must be 0)\n",
		fst.Requests, fst.Retries, fst.Errors)
	if fst.Errors != 0 {
		log.Fatal("failover surfaced errors")
	}

	// 5. Live rollover: a dead replica vetoes a fleet-wide flip, so a second
	//    frontend over the survivor takes POST /reload, which fans the new
	//    checkpoint to every replica it fronts; answers flip to the new model.
	_, survivor, err := fleet.AddFrontend("127.0.0.1:0", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet /reload: %.90s…\n", fetch(survivor, "/reload", ckptB))
	rolled := predict(vertex)
	fmt.Printf("post-rollover logits changed: %v\n", rolled != before)
	if rolled == before {
		log.Fatal("reload did not change the serving model")
	}
}
