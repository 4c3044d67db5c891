// True multi-process training over TCP, in miniature: the same 2-rank
// cd-rs run executed on the in-process fabric (every rank a goroutine over
// its own endpoint, payloads copied between per-rank mailboxes) and over
// loopback TCP (every rank an endpoint with framed messages on real
// sockets — here driven from goroutines, exactly as two separate OS
// processes would drive theirs; see `distgnn-train -transport tcp
// -spawn-local` for the real thing). Both run the same rank loop and the
// same collectives, so the transport is a substrate change, never an
// arithmetic or accounting one: every epoch's loss and simulated timings
// and the final accuracy must match bit for bit, which this example
// verifies and prints. -scale and -epochs shrink the run for smoke
// testing.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/train"
)

func main() {
	scale := flag.Float64("scale", 0.25, "dataset scale factor")
	epochs := flag.Int("epochs", 10, "training epochs")
	flag.Parse()

	ds, err := datasets.Load("reddit-sim", *scale)
	if err != nil {
		log.Fatal(err)
	}
	const ranks = 2
	cfg := train.DistConfig{
		Model:         model.Config{Hidden: 64, NumLayers: 3, Seed: 1},
		NumPartitions: ranks, Algo: train.AlgoCDRS, Delay: 2,
		Epochs: *epochs, LR: 0.02, UseAdam: true, Seed: 1,
	}
	fmt.Printf("reddit-sim: %d vertices, %d edges — cd-2s across %d ranks\n\n",
		ds.G.NumVertices, ds.G.NumEdges, ranks)

	// Substrate 1: the in-process fabric.
	start := time.Now()
	inproc, err := train.Distributed(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	inprocWall := time.Since(start)

	// Substrate 2: a loopback TCP fleet — one endpoint per rank, registry
	// rendezvous through rank 0, each rank training its own partition with
	// gradient AllReduce and stat gathers on the wire.
	eps, err := comm.NewLoopbackTCP(ranks, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	tcp, err := train.DistributedFleet(ds, cfg, eps)
	tcpWall := time.Since(start)
	for _, ep := range eps {
		ep.Close()
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %-12s %-12s %s\n", "transport", "wall time", "final loss", "test acc")
	fmt.Printf("%-10s %-12s %-12.6f %.1f%%\n", "inproc",
		inprocWall.Round(time.Millisecond), lastLoss(inproc), 100*inproc.TestAcc)
	fmt.Printf("%-10s %-12s %-12.6f %.1f%%\n", "tcp",
		tcpWall.Round(time.Millisecond), lastLoss(tcp), 100*tcp.TestAcc)

	for e := range inproc.Epochs {
		if inproc.Epochs[e] != tcp.Epochs[e] {
			log.Fatalf("epoch %d: stats diverged across transports: %+v vs %+v",
				e, inproc.Epochs[e], tcp.Epochs[e])
		}
	}
	if inproc.TestAcc != tcp.TestAcc || inproc.TrainAcc != tcp.TrainAcc {
		log.Fatalf("accuracy diverged across transports")
	}
	fmt.Println("\nEvery epoch's loss and simulated timings and the final accuracy are")
	fmt.Println("bit-identical across substrates: the transport moves the same bytes")
	fmt.Println("through a different fabric, and rank-ordered reductions keep the float")
	fmt.Println("math exact.")
}

func lastLoss(r *train.DistResult) float64 { return r.Epochs[len(r.Epochs)-1].Loss }
