// Distributed sampled mini-batch training over the shared feature-sourcing
// plane, in miniature: a 2-rank GraphSAGE run with training vertices AND
// features sharded across ranks (internal/featstore serves each rank's
// halo rows over the comm fabric), executed twice — over loopback TCP
// (every rank a single-rank endpoint, halo fetches and gradient AllReduce
// on real sockets, exactly as two separate OS processes would run; see
// `distgnn-train -minibatch -shards 2 -transport tcp -spawn-local` for the
// real thing) and as the replicated-feature single-process reference
// (minibatch.TrainDistributed, every rank reading one shared slab).
//
// Both runs go through the same rank loop; only the layer-0 feature
// source differs (a sharded gather vs the resident slab). Sharding the
// features and moving them over a wire is a substrate change, never an
// arithmetic one: with the same seed and rank count, the final model
// parameters must match bit for bit — which this example verifies and
// prints, alongside the halo traffic the featstore plane absorbed.
// -scale and -epochs shrink the run for smoke testing.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/minibatch"
)

func main() {
	scale := flag.Float64("scale", 0.25, "dataset scale factor")
	epochs := flag.Int("epochs", 5, "training epochs")
	flag.Parse()

	ds, err := datasets.Load("reddit-sim", *scale)
	if err != nil {
		log.Fatal(err)
	}
	const ranks = 2
	cfg := minibatch.ShardedTrainConfig{
		DistConfig: minibatch.DistConfig{
			Config: minibatch.Config{
				Hidden: 64, Fanouts: []int{10, 5},
				BatchSize: 256, Epochs: *epochs, LR: 0.02, UseAdam: true, Seed: 1,
			},
			NumRanks: ranks,
		},
		CacheBytes: 16 << 20,
	}
	fmt.Printf("reddit-sim: %d vertices, %d edges — sampled mini-batch across %d ranks, fanouts %v\n\n",
		ds.G.NumVertices, ds.G.NumEdges, ranks, cfg.Fanouts)

	// Reference: replicated features, all ranks in this process reading the
	// same slab. Same seeds, same rank count.
	start := time.Now()
	ref, err := minibatch.TrainDistributed(ds, cfg.DistConfig)
	if err != nil {
		log.Fatal(err)
	}
	refWall := time.Since(start)

	// Sharded: a loopback TCP fleet — one endpoint per rank, each rank
	// owning a Libra partition's feature rows and fetching its halo from
	// the peer through featstore's batched ReqRep path.
	eps, err := comm.NewLoopbackTCP(ranks, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	results := make([]*minibatch.DistResult, ranks)
	errs := make([]error, ranks)
	start = time.Now()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rcfg := cfg
			rcfg.Transport = eps[r]
			results[r], errs[r] = minibatch.TrainSharded(ds, rcfg)
		}()
	}
	wg.Wait()
	tcpWall := time.Since(start)
	for _, ep := range eps {
		ep.Close()
	}
	for r, err := range errs {
		if err != nil {
			log.Fatalf("rank %d: %v", r, err)
		}
	}

	fmt.Printf("%-22s %-12s %-12s %s\n", "run", "wall time", "final loss", "test acc")
	fmt.Printf("%-22s %-12s %-12.6f %.1f%%\n", "replicated (inproc)",
		refWall.Round(time.Millisecond), lastLoss(ref), 100*ref.TestAcc)
	fmt.Printf("%-22s %-12s %-12.6f %.1f%%\n", "sharded (tcp)",
		tcpWall.Round(time.Millisecond), lastLoss(results[0]), 100*results[0].TestAcc)

	var fetched, hits, misses int64
	for r := 0; r < ranks; r++ {
		hs := results[r].HaloStats[r]
		fetched += hs.HaloFetchedVertices
		hits += hs.HaloHits
		misses += hs.HaloMisses
	}
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	fmt.Printf("\nhalo traffic: %d feature rows fetched from peers, cache hit rate %.1f%%\n",
		fetched, 100*rate)

	// The pin: every TCP rank's final parameters are bit-identical to the
	// replicated single-process reference.
	for r := 0; r < ranks; r++ {
		if len(results[r].Params) != len(ref.Params) {
			log.Fatalf("rank %d: param vector length %d != reference %d",
				r, len(results[r].Params), len(ref.Params))
		}
		for i := range ref.Params {
			if math.Float32bits(results[r].Params[i]) != math.Float32bits(ref.Params[i]) {
				log.Fatalf("rank %d: param %d differs from reference: %v != %v",
					r, i, results[r].Params[i], ref.Params[i])
			}
		}
	}
	fmt.Printf("final parameters bit-identical: sharded TCP ≡ replicated single-process (%d params)\n",
		len(ref.Params))
}

func lastLoss(res *minibatch.DistResult) float64 {
	return res.Epochs[len(res.Epochs)-1].Loss
}
