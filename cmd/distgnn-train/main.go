// Command distgnn-train trains GraphSAGE on a synthetic benchmark
// dataset: full-batch on a single socket, full-batch distributed across
// in-process simulated sockets or a true multi-process TCP fleet, or
// neighbor-sampled mini-batch (-minibatch) with training vertices and
// features sharded across ranks (-shards) over the shared featstore
// plane — halo feature rows fetched from owning peers with an LRU cache
// and one-batch prefetch overlapping compute.
//
// Examples:
//
//	distgnn-train -dataset reddit-sim -epochs 50 -lr 0.01
//	distgnn-train -dataset ogbn-products-sim -sockets 8 -algo cd-r -delay 5
//	distgnn-train -dataset ogbn-products-sim -sockets 8 -algo cd-rs -delay 5
//	distgnn-train -minibatch -fanouts 10,5 -batch 512 -shards 4
//	distgnn-train -minibatch -shards 2 -transport tcp -spawn-local
//
// Mini-batch runs are seed-reproducible: given the same -seed and rank
// count, the final model parameters are bit-identical whether features
// are sharded or replicated and whether the fleet is in-process or TCP
// (each rank's sampler is seeded seed+rank; gradients are AllReduced in
// rank order). Changing the rank count changes the sampler-seed set and
// the global batch composition, so it legitimately changes the trajectory.
//
// True multi-process training over TCP (see README "Running true
// multi-process training"): every process runs this same binary with its
// own -rank; only rank 0's address must be known (the rendezvous
// registry), and -spawn-local forks the whole fleet on one machine:
//
//	distgnn-train -transport tcp -spawn-local -sockets 2 -algo cd-rs -delay 5
//	distgnn-train -transport tcp -sockets 2 -rank 0 -peers 10.0.0.1:9000 ... # on host A
//	distgnn-train -transport tcp -sockets 2 -rank 1 -peers 10.0.0.1:9000 ... # on host B
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/graphio"
	"distgnn/internal/minibatch"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/obs"
	"distgnn/internal/train"
)

func main() {
	dataset := flag.String("dataset", "reddit-sim",
		"dataset name: "+strings.Join(datasets.Names(), ", "))
	scale := flag.Float64("scale", 0.5, "dataset scale factor")
	file := flag.String("file", "", "load a dataset file written by distgnn-datagen instead of generating")
	sockets := flag.Int("sockets", 1, "number of CPU sockets (partitions / ranks)")
	algo := flag.String("algo", "cd-0", "distributed algorithm: 0c, cd-0, cd-r, cd-rs (nonblocking overlap)")
	delay := flag.Int("delay", 5, "delay r for cd-r/cd-rs")
	forceSync := flag.Bool("force-sync-overlap", false,
		"cd-rs only: charge every nonblocking transfer as if synchronous (conformance/debug)")
	epochs := flag.Int("epochs", 30, "training epochs")
	lr := flag.Float64("lr", 0.01, "learning rate")
	wd := flag.Float64("wd", 5e-4, "weight decay")
	adam := flag.Bool("adam", true, "use Adam (false = SGD)")
	hidden := flag.Int("hidden", 64, "hidden layer width")
	layers := flag.Int("layers", 3, "number of GraphSAGE layers")
	seed := flag.Int64("seed", 1, "random seed")
	save := flag.String("save", "", "write trained model parameters to this file (single-socket mode)")
	workers := flag.Int("workers", 0,
		"kernel worker-pool size, the OMP_NUM_THREADS analogue (0 = GOMAXPROCS)")
	transport := flag.String("transport", "inproc",
		"comm fabric for -sockets >1: inproc (every rank a goroutine in this process) or tcp (this process is one rank of a multi-process fleet)")
	rank := flag.Int("rank", 0, "tcp: this process's rank")
	peers := flag.String("peers", "",
		"tcp: comma-separated rank→listen addresses; only the rank-0 entry is required (rendezvous registry), others default to ephemeral loopback ports")
	listen := flag.String("listen", "",
		"tcp: bind address override for this rank (cross-machine ranks bind a routable interface here)")
	advertise := flag.String("advertise", "",
		"tcp: routable host:port this rank registers with the rendezvous (defaults to the bound address)")
	spawnLocal := flag.Bool("spawn-local", false,
		"tcp: fork -sockets processes of this binary over loopback; this process trains rank 0")
	netTimeout := flag.Duration("net-timeout", comm.DefaultTCPTimeout,
		"tcp: deadline for dial/handshake/send/recv/barrier operations")
	mb := flag.Bool("minibatch", false,
		"neighbor-sampled mini-batch GraphSAGE training (Dist-DGL style) instead of full-batch; layer count comes from -fanouts, not -layers")
	fanouts := flag.String("fanouts", "10,5",
		"minibatch: per-hop neighbor fan-outs, seed hop first; one GraphSAGE layer per entry")
	batch := flag.Int("batch", 512, "minibatch: seed vertices per rank per step")
	shards := flag.Int("shards", 0,
		"minibatch: shard training vertices AND features across this many ranks (halo rows fetched over the comm fabric); 0 keeps features replicated over -sockets ranks")
	haloCache := flag.Int64("halo-cache", 32<<20,
		"minibatch -shards: per-rank LRU budget in bytes for fetched halo feature rows (≤0 disables)")
	telemetryPath := flag.String("telemetry", "",
		"write per-epoch training telemetry as JSONL here (speaking rank only); losses carry exact float64 bit patterns")
	metricsJSON := flag.String("metrics-json", "",
		"dump a JSON metrics snapshot here at exit (speaking rank only)")
	profileMode := flag.String("profile", "",
		"capture a pprof profile over the whole run: cpu or mem")
	profileOut := flag.String("profile-out", "",
		"profile output path (default distgnn-train.<mode>.pprof)")
	flag.Parse()

	if *mb && *transport == "tcp" && *shards <= 1 {
		fatal(fmt.Errorf("-minibatch over tcp requires -shards >1 (replicated mini-batch runs are in-process)"))
	}

	// TCP fabric setup happens before the (identical, deterministic)
	// dataset generation so spawned ranks start rendezvousing while the
	// parent builds its graph. Sharded mini-batch fleets are sized by
	// -shards; full-batch fleets by -sockets.
	fleet := *sockets
	if *mb && *shards > 1 {
		fleet = *shards
	}
	var tr comm.Transport
	var children []*exec.Cmd
	tcpMode := *transport == "tcp" && fleet > 1
	switch {
	case *transport != "inproc" && *transport != "tcp":
		fatal(fmt.Errorf("unknown -transport %q (inproc or tcp)", *transport))
	case tcpMode:
		var err error
		tr, children, err = setupTCP(fleet, *rank, *peers, *listen, *advertise, *spawnLocal, *netTimeout)
		if err != nil {
			fatal(err)
		}
	case *spawnLocal:
		fatal(fmt.Errorf("-spawn-local requires -transport tcp and more than one rank"))
	}
	// Rank 0 speaks for a TCP fleet; other ranks train silently.
	verbose := !tcpMode || *rank == 0

	// Telemetry and profiling follow the speaking rank: spawned ranks
	// inherit the parent's flags, so gating on verbose keeps them from
	// clobbering the same output files.
	tel := newTelemetry(*telemetryPath, *metricsJSON, verbose)
	stopProf := func() {}
	if verbose && *profileMode != "" {
		out := *profileOut
		if out == "" {
			out = "distgnn-train." + *profileMode + ".pprof"
		}
		stopProf = startProfile(*profileMode, out)
	}

	var ds *datasets.Dataset
	var err error
	name := *dataset
	if *file != "" {
		f, ferr := os.Open(*file)
		if ferr != nil {
			fatal(ferr)
		}
		ds, err = graphio.ReadDataset(f)
		f.Close()
		name = *file
	} else {
		ds, err = datasets.Load(*dataset, *scale)
	}
	if err != nil {
		fatal(err)
	}
	if verbose {
		fmt.Printf("dataset %s: %d vertices, %d edges (avg degree %.1f), %d features, %d classes\n",
			name, ds.G.NumVertices, ds.G.NumEdges, ds.G.AvgDegree(),
			ds.Features.Cols, ds.NumClasses)
	}

	if *mb {
		fo, err := minibatch.ParseFanouts(*fanouts)
		if err == nil && len(fo) == 0 {
			err = fmt.Errorf("-minibatch needs a non-empty -fanouts list")
		}
		if err != nil {
			fatal(err)
		}
		cfg := minibatch.Config{
			Hidden: *hidden, NumLayers: len(fo), Fanouts: fo,
			BatchSize: *batch, Epochs: *epochs, LR: *lr, UseAdam: *adam,
			Seed: *seed, Workers: *workers,
		}
		runMinibatch(ds, cfg, tr, children, *shards, *sockets, *haloCache, *seed, verbose, tel, stopProf)
		return
	}
	mc := model.Config{Hidden: *hidden, NumLayers: *layers, Seed: *seed}
	if *sockets <= 1 {
		res, err := train.SingleSocket(ds, train.SingleConfig{
			Model: mc, Epochs: *epochs, LR: *lr, WeightDecay: *wd, UseAdam: *adam,
			Workers: *workers,
		})
		if err != nil {
			fatal(err)
		}
		for e, st := range res.Epochs {
			if e%5 == 0 || e == len(res.Epochs)-1 {
				fmt.Printf("epoch %3d  loss %.4f  time %v (AP %v)\n",
					e, st.Loss, st.Total, st.Agg)
			}
		}
		fmt.Printf("accuracy: train %.2f%%  val %.2f%%  test %.2f%%\n",
			100*res.TrainAcc, 100*res.ValAcc, 100*res.TestAcc)
		for e, st := range res.Epochs {
			tel.epoch(e, st.Loss, map[string]any{
				"wall_s": st.Total.Seconds(), "agg_s": st.Agg.Seconds(),
			})
		}
		tel.run(map[string]any{
			"mode": "single", "train_acc": res.TrainAcc, "val_acc": res.ValAcc,
			"test_acc": res.TestAcc, "test_acc_bits": obs.F64Bits(res.TestAcc),
		}, nil)
		tel.close()
		stopProf()
		checkFiniteLoss(res.Epochs[len(res.Epochs)-1].Loss)
		if *save != "" {
			f, err := os.Create(*save)
			if err != nil {
				fatal(err)
			}
			if err := nn.WriteParams(f, res.Model.Params()); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			// Print the hyperparameters the serving side must repeat —
			// distgnn-serve fails fast when they disagree with the file.
			fmt.Printf("checkpoint written to %s (arch graphsage, in %d, hidden %d, layers %d, out %d)\n",
				*save, ds.Features.Cols, *hidden, *layers, ds.NumClasses)
			dsFlags := fmt.Sprintf("-dataset %s -scale %g", *dataset, *scale)
			if *file != "" {
				dsFlags = "-file " + *file
			}
			fmt.Printf("serve it with: distgnn-serve -checkpoint %s %s -hidden %d -layers %d\n",
				*save, dsFlags, *hidden, *layers)
		}
		return
	}

	start := time.Now()
	res, err := train.Distributed(ds, train.DistConfig{
		Model: mc, NumPartitions: *sockets, Algo: train.Algorithm(*algo),
		Delay: *delay, Epochs: *epochs, LR: *lr, WeightDecay: *wd,
		UseAdam: *adam, Seed: *seed, Workers: *workers,
		ForceSyncOverlap: *forceSync,
		Transport:        tr,
	})
	if err != nil {
		comm.KillRanks(children)
		fatal(err)
	}
	wall := time.Since(start)
	if verbose {
		fmt.Printf("partitioning: replication factor %.2f, edge balance %.3f\n",
			res.Replication, res.EdgeBalance)
		for e, st := range res.Epochs {
			if e%5 == 0 || e == len(res.Epochs)-1 {
				fmt.Printf("epoch %3d  loss %.4f  sim epoch %.3fms (LAT %.3fms RAT %.3fms)\n",
					e, st.Loss, st.Epoch*1e3, st.LAT*1e3, st.RAT*1e3)
			}
		}
		if tcpMode {
			fmt.Printf("transport tcp: %d ranks, wall time %.2fs (%.3fs/epoch)\n",
				*sockets, wall.Seconds(), wall.Seconds()/float64(*epochs))
		}
		fmt.Printf("accuracy: train %.2f%%  test %.2f%%\n", 100*res.TrainAcc, 100*res.TestAcc)
	}
	for e, st := range res.Epochs {
		tel.epoch(e, st.Loss, map[string]any{
			"sim_epoch_s": st.Epoch, "lat_s": st.LAT, "rat_s": st.RAT,
			"exposed_net_s": st.ExposedNet, "param_sync_s": st.ParamSync,
		})
	}
	tel.run(map[string]any{
		"mode": "fullbatch-dist", "ranks": *sockets, "algo": *algo,
		"wall_s": wall.Seconds(), "replication": res.Replication,
		"edge_balance": res.EdgeBalance,
		"train_acc":    res.TrainAcc, "test_acc": res.TestAcc,
		"test_acc_bits": obs.F64Bits(res.TestAcc),
	}, tr)
	tel.close()
	stopProf()
	checkFiniteLoss(res.Epochs[len(res.Epochs)-1].Loss)
	if tr != nil {
		tr.Close()
	}
	waitChildren(children)
}

// runMinibatch drives neighbor-sampled mini-batch training: sharded
// features over the featstore plane when -shards >0 (inproc or one TCP
// rank of a fleet), replicated features over -sockets in-process ranks
// otherwise. Final parameters are bit-identical across rank counts and
// transports given the same -seed (the distributed-minibatch conformance
// pin), so the printed loss trace and accuracy are too.
func runMinibatch(ds *datasets.Dataset, cfg minibatch.Config, tr comm.Transport,
	children []*exec.Cmd, shards, sockets int, haloCache, seed int64, verbose bool,
	tel *telemetry, stopProf func()) {
	var res *minibatch.DistResult
	var err error
	start := time.Now()
	if shards > 0 {
		if verbose {
			fabric := "inproc"
			if tr != nil {
				fabric = "tcp"
			}
			fmt.Printf("minibatch: fanouts %v, batch %d/rank, %d shards (%s), halo cache %d MiB/rank\n",
				cfg.Fanouts, cfg.BatchSize, shards, fabric, haloCache>>20)
		}
		res, err = minibatch.TrainSharded(ds, minibatch.ShardedTrainConfig{
			DistConfig: minibatch.DistConfig{Config: cfg, NumRanks: shards},
			Transport:  tr, PartitionSeed: seed, CacheBytes: haloCache,
		})
	} else {
		if tr != nil {
			comm.KillRanks(children)
			fatal(fmt.Errorf("replicated -minibatch needs -shards to run over tcp"))
		}
		ranks := sockets
		if ranks < 1 {
			ranks = 1
		}
		if verbose {
			fmt.Printf("minibatch: fanouts %v, batch %d/rank, %d ranks (replicated features)\n",
				cfg.Fanouts, cfg.BatchSize, ranks)
		}
		res, err = minibatch.TrainDistributed(ds, minibatch.DistConfig{Config: cfg, NumRanks: ranks})
	}
	if err != nil {
		comm.KillRanks(children)
		fatal(err)
	}
	wall := time.Since(start)
	var hits, misses, fetchedVerts, fetchedBytes int64
	for _, hs := range res.HaloStats {
		hits += hs.HaloHits
		misses += hs.HaloMisses
		fetchedVerts += hs.HaloFetchedVertices
		fetchedBytes += hs.HaloFetchedBytes
	}
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	if verbose {
		for e, st := range res.Epochs {
			if e%5 == 0 || e == len(res.Epochs)-1 {
				fmt.Printf("epoch %3d  loss %.4f  time %v  steps %d  sampled-work %d\n",
					e, st.Loss, st.Time.Round(time.Millisecond), st.Steps, st.SampledWork)
			}
		}
		if hits+misses > 0 || fetchedVerts > 0 {
			fmt.Printf("halo: cache hit rate %.1f%% (%d rows fetched from peers)\n",
				100*rate, fetchedVerts)
		}
		fmt.Printf("accuracy: test %.2f%%  (wall %.2fs, %.3fs/epoch)\n",
			100*res.TestAcc, wall.Seconds(), wall.Seconds()/float64(len(res.Epochs)))
	}
	for e, st := range res.Epochs {
		tel.epoch(e, st.Loss, map[string]any{
			"wall_s": st.Time.Seconds(), "steps": st.Steps,
			"sampled_work": st.SampledWork, "allreduce_s": st.AllReduce.Seconds(),
		})
	}
	mode := "minibatch-replicated"
	if shards > 0 {
		mode = "minibatch-sharded"
	}
	tel.run(map[string]any{
		"mode": mode, "shards": shards, "wall_s": wall.Seconds(),
		"test_acc": res.TestAcc, "test_acc_bits": obs.F64Bits(res.TestAcc),
		"halo_hit_rate": rate, "halo_fetched_vertices": fetchedVerts,
		"halo_fetched_bytes": fetchedBytes,
	}, tr)
	tel.close()
	stopProf()
	checkFiniteLoss(res.Epochs[len(res.Epochs)-1].Loss)
	if tr != nil {
		tr.Close()
	}
	waitChildren(children)
}

// setupTCP builds this process's TCP endpoint and, under -spawn-local,
// forks the nonzero ranks of the fleet (this process trains rank 0). The
// returned transport is fully established.
func setupTCP(sockets, rank int, peers, listen, advertise string, spawnLocal bool, timeout time.Duration) (comm.Transport, []*exec.Cmd, error) {
	var peerList []string
	if peers != "" {
		peerList = strings.Split(peers, ",")
	}
	if spawnLocal && rank != 0 {
		return nil, nil, fmt.Errorf("-spawn-local is the rank-0 parent; it cannot run as rank %d", rank)
	}
	tr, err := comm.NewTCPTransport(comm.TCPConfig{
		Rank: rank, N: sockets, Peers: peerList,
		Listen: listen, Advertise: advertise, Timeout: timeout,
	})
	if err != nil {
		return nil, nil, err
	}

	var children []*exec.Cmd
	if spawnLocal {
		// The parent's -listen/-advertise are its own addresses — children
		// must not inherit them (bind collisions, corrupt rendezvous table).
		children, err = comm.SpawnLocalRanks(sockets, func(r int) []string {
			return []string{
				"-spawn-local=false", "-transport=tcp",
				"-listen=", "-advertise=",
				fmt.Sprintf("-rank=%d", r), "-peers=" + tr.Addr(),
			}
		})
		if err != nil {
			tr.Close()
			return nil, nil, err
		}
	}

	if err := tr.Establish(); err != nil {
		tr.Close()
		comm.KillRanks(children)
		return nil, nil, err
	}
	return tr, children, nil
}

// waitChildren reaps spawned ranks and exits nonzero if any rank failed —
// the whole fleet is one training run.
func waitChildren(children []*exec.Cmd) {
	if err := comm.WaitRanks(children); err != nil {
		fmt.Fprintln(os.Stderr, "distgnn-train:", err)
		os.Exit(1)
	}
}

// checkFiniteLoss turns a numerically diverged run into a nonzero exit —
// what the CI multi-process smoke asserts on.
func checkFiniteLoss(loss float64) {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		fatal(fmt.Errorf("training diverged: final loss %v is not finite", loss))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distgnn-train:", err)
	os.Exit(1)
}
