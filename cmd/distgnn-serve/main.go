// Command distgnn-serve answers online inference queries against a trained
// distgnn-train checkpoint over HTTP: per-vertex class predictions and
// final-layer embeddings, with request coalescing into micro-batches and a
// concurrent byte-budgeted feature/embedding cache.
//
// The dataset flags must regenerate (or load) the graph the checkpoint was
// trained on, and -arch/-hidden/-layers/-heads must match the trainer's
// flags — distgnn-train prints them next to "checkpoint written", and this
// command fails fast on any mismatch.
//
// Examples:
//
//	distgnn-train -dataset reddit-sim -scale 0.5 -epochs 50 -save ckpt.dgnp
//	distgnn-serve -checkpoint ckpt.dgnp -dataset reddit-sim -scale 0.5
//	curl 'localhost:8399/predict?vertex=17'
//	curl 'localhost:8399/embed?vertex=17'
//	curl 'localhost:8399/stats'
//
// By default inference is exact (full k-hop neighborhoods — bit-identical
// to a full-graph forward pass of the trained model); -fanouts switches to
// DGL-style sampled neighborhoods for latency at scale.
//
// Sharded serving (-shards N) splits the engine across N ranks: each rank
// owns one vertex partition and its feature slice, any rank routes requests
// to the owner, and halo features cross the comm fabric (see README
// "Sharded serving"). Exact-mode logits stay bit-identical to a
// single-process server:
//
//	distgnn-serve -checkpoint ckpt.dgnp -shards 2 -transport tcp -spawn-local ...
//	distgnn-serve -checkpoint ckpt.dgnp -shards 2 -transport inproc ...
//	curl 'localhost:8399/predict?vertex=17'   # rank 0
//	curl 'localhost:8400/predict?vertex=17'   # rank 1 — same bytes
//
// Replicated serving (-replicas R) runs R bit-identical copies of the
// engine (or of the whole shard fleet) behind a consistent-hash frontend
// on -addr: vertices hash to a shard group, the frontend load-balances
// across the group's replicas with power-of-two-choices and fails over
// when a replica dies, and POST /reload (with -reload) hot-swaps every
// replica to a new checkpoint with zero dropped requests:
//
//	distgnn-serve -checkpoint ckpt.dgnp -shards 2 -replicas 2 ...
//	distgnn-serve -checkpoint ckpt.dgnp -shards 2 -replicas 2 -transport tcp -spawn-local -reload ...
//	curl 'localhost:8399/predict?vertex=17'             # frontend
//	curl -X POST 'localhost:8399/reload?checkpoint=new.dgnp'
//
// Every in-process topology is one serve.StartFleet call. In every mode
// SIGINT or SIGTERM drains in-flight requests before the process exits 0;
// a -spawn-local parent then stops and reaps the processes it forked.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/graphio"
	"distgnn/internal/minibatch"
	"distgnn/internal/obs"
	"distgnn/internal/parallel"
	"distgnn/internal/serve"
)

func main() {
	checkpoint := flag.String("checkpoint", "", "trained model parameters written by distgnn-train -save (required)")
	dataset := flag.String("dataset", "reddit-sim",
		"dataset name: "+strings.Join(datasets.Names(), ", "))
	scale := flag.Float64("scale", 0.5, "dataset scale factor (must match training)")
	file := flag.String("file", "", "load a dataset file written by distgnn-datagen instead of generating")
	arch := flag.String("arch", "graphsage", "checkpoint architecture: graphsage or gat")
	hidden := flag.Int("hidden", 64, "hidden layer width (must match training)")
	layers := flag.Int("layers", 3, "number of layers (must match training)")
	heads := flag.Int("heads", 1, "gat: attention heads per layer (must match training)")
	outDim := flag.Int("out-dim", 0,
		"checkpoint output width when it differs from the dataset's class count (e.g. gat trained with classes padded to a -heads multiple); 0 = class count")
	fanouts := flag.String("fanouts", "",
		"comma-separated per-layer neighbor fanouts for sampled inference (e.g. 15,10,5); empty = exact full neighborhoods")
	addr := flag.String("addr", "127.0.0.1:8399", "HTTP listen address (shard mode: rank r defaults to port+r)")
	maxBatch := flag.Int("max-batch", 16, "request coalescer: max queries per micro-batch (1 disables coalescing)")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "request coalescer: max time a query waits for batch mates while a batch is in flight (an idle server starts a batch at once)")
	featCacheMB := flag.Float64("feature-cache-mb", 64, "gathered-feature cache budget in MB (0 disables; shard mode: the halo feature cache)")
	embCacheMB := flag.Float64("embed-cache-mb", 16, "final-layer embedding cache budget in MB (0 disables)")
	workers := flag.Int("workers", 0,
		"kernel worker-pool size, the OMP_NUM_THREADS analogue (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 1, "shard the engine across this many ranks (1 = single-process serving)")
	rank := flag.Int("rank", 0, "shard mode, tcp: this process's rank")
	transport := flag.String("transport", "inproc",
		"shard fabric: inproc (all shards in this process) or tcp (this process is one rank of a fleet)")
	peers := flag.String("peers", "",
		"shard mode: comma-separated rank→HTTP addresses; empty derives rank r as -addr's port+r")
	commPeers := flag.String("comm-peers", "",
		"shard mode, tcp: comma-separated rank→comm listen addresses; only the rank-0 entry (rendezvous registry) is required")
	commListen := flag.String("comm-listen", "",
		"shard mode, tcp: comm bind address override for this rank")
	spawnLocal := flag.Bool("spawn-local", false,
		"shard mode, tcp: fork -shards processes of this binary over loopback; this process serves rank 0")
	netTimeout := flag.Duration("net-timeout", comm.DefaultTCPTimeout,
		"shard mode, tcp: deadline for dial/handshake/send/recv/barrier operations")
	partSeed := flag.Int64("partition-seed", 1,
		"shard mode: seed of the deterministic vertex-cut partitioning every rank derives")
	replicas := flag.Int("replicas", 1,
		"run this many bit-identical replicas of the engine (or shard fleet) behind a consistent-hash frontend on -addr; backends take ports addr+1..addr+shards*replicas")
	reloadOn := flag.Bool("reload", false,
		"enable POST /reload checkpoint hot-swapping (reads server-side files via ?checkpoint=path)")
	updatesOn := flag.Bool("updates", false,
		"enable POST /update streaming edge inserts (exact mode only; in shard mode the entry rank fans each batch out to the fleet)")
	compactThreshold := flag.Int("compact-threshold", 0,
		"overlay edges that trigger background compaction into the base CSR (0 = default 4096, negative disables auto-compaction)")
	metricsOn := flag.Bool("metrics", true,
		"expose GET /metrics (Prometheus text exposition) on every HTTP endpoint")
	traceOn := flag.Bool("trace", false,
		"per-request tracing: stage spans, GET /debug/trace/recent, cross-rank trace IDs on halo fetches")
	slowLog := flag.String("slow-log", "",
		"JSONL slow-request log path; each process appends to the path with its own instance tag spliced before the extension (requires -trace)")
	slowThreshold := flag.Duration("slow-threshold", 0,
		"minimum request duration for the slow log (0 logs every traced request)")
	traceRing := flag.Int("trace-ring", 256, "recent-trace ring size behind /debug/trace/recent")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/ profiling endpoints")
	flag.Parse()

	if *checkpoint == "" {
		fatal(fmt.Errorf("-checkpoint is required (train one with: distgnn-train -save model.dgnp)"))
	}
	if *workers > 0 {
		parallel.Configure(parallel.Config{Workers: *workers})
	}

	cfg := serve.Config{
		Arch:              serve.Arch(*arch),
		Hidden:            *hidden,
		NumLayers:         *layers,
		NumHeads:          *heads,
		OutDim:            *outDim,
		MaxBatch:          *maxBatch,
		MaxWait:           *maxWait,
		FeatureCacheBytes: int64(*featCacheMB * (1 << 20)),
		EmbedCacheBytes:   int64(*embCacheMB * (1 << 20)),
	}
	cfg.EnableReload = *reloadOn
	cfg.EnableUpdates = *updatesOn
	cfg.CompactThreshold = *compactThreshold
	var err error
	cfg.Fanouts, err = minibatch.ParseFanouts(*fanouts)
	if err != nil {
		fatal(err)
	}
	obsf := obsOptions{
		metrics: *metricsOn, trace: *traceOn, pprof: *pprofOn,
		slowLog: *slowLog, slowThreshold: *slowThreshold, ring: *traceRing,
	}
	top := serve.Topology{
		Shards: *shards, Replicas: *replicas, PartitionSeed: *partSeed,
		Obs: obsf.wire, Handler: obsf.handler,
	}
	switch {
	case *shards < 1 || *replicas < 1:
		fatal(fmt.Errorf("-shards and -replicas must be ≥1"))
	case *transport != "inproc" && *transport != "tcp":
		fatal(fmt.Errorf("unknown -transport %q (inproc or tcp)", *transport))
	case *replicas > 1 && *updatesOn:
		// Each replica group holds independent mutation state; an update
		// landing on one group would silently diverge the others.
		fatal(fmt.Errorf("-updates is not supported behind the replicated frontend (drop -replicas)"))
	case *replicas > 1 && *transport == "tcp":
		if !*spawnLocal {
			fatal(fmt.Errorf("replicated tcp serving requires -spawn-local (the frontend forks the backend fleets)"))
		}
		spawnReplicas(top, *addr, comm.NotifyStop())
		return
	case *spawnLocal && (*transport != "tcp" || *shards == 1):
		fatal(fmt.Errorf("-spawn-local requires -transport tcp and -shards >1 or -replicas >1"))
	}
	sig := comm.NotifyStop()

	// TCP shard rendezvous starts before the (deterministic) dataset
	// generation so spawned ranks overlap their graph builds.
	var httpAddrs []string
	if *replicas > 1 {
		top.Frontend = *addr
		httpAddrs, err = serve.BackendAddrs(*addr, *shards**replicas)
	} else {
		httpAddrs, err = shardHTTPAddrs(*peers, *addr, *shards)
	}
	if err != nil {
		fatal(err)
	}
	var tr comm.Transport
	var children []*exec.Cmd
	tcpMode := *transport == "tcp" && *shards > 1 && *replicas == 1
	if tcpMode {
		var peerList []string
		if *commPeers != "" {
			peerList = strings.Split(*commPeers, ",")
		}
		tr, children, err = comm.JoinTCPFleet(comm.TCPConfig{
			Rank: *rank, N: *shards, Peers: peerList, Listen: *commListen, Timeout: *netTimeout,
		}, *spawnLocal, func(r int, registry string) []string {
			return rankArgs(httpAddrs, []string{registry}, *shards, r)
		})
		if err != nil {
			fatal(err)
		}
	}

	ds, name, err := loadDataset(*file, *dataset, *scale)
	if err != nil {
		fatal(err)
	}
	if !tcpMode || *rank == 0 {
		fmt.Printf("dataset %s: %d vertices, %d edges (avg degree %.1f), %d features, %d classes\n",
			name, ds.G.NumVertices, ds.G.NumEdges, ds.G.AvgDegree(),
			ds.Features.Cols, ds.NumClasses)
	}
	ckpt, err := os.ReadFile(*checkpoint)
	if err != nil {
		fatal(err)
	}

	if tcpMode {
		srv, err := top.NewRank(ds, ckpt, cfg, tr, httpAddrs)
		if err != nil {
			fatal(err)
		}
		st := srv.StatsSnapshot().Shard
		fmt.Printf("shard rank %d/%d (tcp): owns %d vertices, static halo %d, model %s, serving on http://%s\n",
			*rank, *shards, st.OwnedVertices, st.HaloVerticesStatic, srv.Engine().Spec(), httpAddrs[*rank])
		err = serveUntil(top.HTTPServer(httpAddrs[*rank], srv.Handler()), sig)
		// Peers may still fetch halo rows from this rank until they stop,
		// so the fabric closes after them.
		srv.Close()
		comm.StopRanks(children, serve.ShutdownTimeout)
		tr.Close()
		if err != nil {
			fatal(err)
		}
		return
	}

	// In-process: every backend (and the frontend) in this process, each
	// replica's shards over their own in-process fabric.
	top.Addrs = httpAddrs
	fleet, err := serve.StartFleet(ds, ckpt, cfg, top)
	if err != nil {
		fatal(err)
	}
	eng := fleet.Servers[0].Engine()
	fmt.Printf("model %s from %s, inference mode %s: %d shards × %d replicas on %v\n",
		eng.Spec(), *checkpoint, eng.Mode(), *shards, *replicas, fleet.Addrs)
	if fleet.Frontend != nil {
		fmt.Printf("frontend on http://%s\n", fleet.FrontendAddr)
	}
	<-sig
	fleet.Close()
}

// serveUntil serves hs until sig fires, then drains it through Shutdown
// within serve.ShutdownTimeout. It returns the listener's error if serving
// ends on its own.
func serveUntil(hs *http.Server, sig <-chan os.Signal) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-sig:
	}
	ctx, cancel := context.WithTimeout(context.Background(), serve.ShutdownTimeout)
	defer cancel()
	if hs.Shutdown(ctx) != nil {
		hs.Close()
	}
	return nil
}

// loadDataset loads -file (a distgnn-datagen artifact) or regenerates the
// named dataset deterministically.
func loadDataset(file, dataset string, scale float64) (*datasets.Dataset, string, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		ds, err := graphio.ReadDataset(f)
		return ds, file, err
	}
	ds, err := datasets.Load(dataset, scale)
	return ds, dataset, err
}

// obsOptions carries the observability flags: each server instance (rank,
// replica, or frontend) wires its own registry and tracer so scrape-time
// metric funcs read that instance's counters and slow logs never interleave.
type obsOptions struct {
	metrics, trace, pprof bool
	slowLog               string
	slowThreshold         time.Duration
	ring                  int
}

// wire builds one instance's registry and tracer (nil when the respective
// leg is off — the obs plane's disabled-is-free contract). The slow log
// lands in a per-instance file keyed by instanceTag, so spawned ranks
// sharing the flag never share a file.
func (o obsOptions) wire(role string, rank int, addr string) (*obs.Registry, *obs.Tracer) {
	var reg *obs.Registry
	if o.metrics {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if o.trace {
		tcfg := obs.TracerConfig{
			Role: role, Rank: rank, RingSize: o.ring, SlowThreshold: o.slowThreshold,
		}
		if o.slowLog != "" {
			f, err := os.OpenFile(slowLogPath(o.slowLog, instanceTag(role, rank, addr)),
				os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			tcfg.SlowLog = f // process-lifetime writer; closed on exit
		}
		tracer = obs.NewTracer(tcfg)
	}
	return reg, tracer
}

// handler wraps a server's mux with the /debug/pprof/ endpoints under
// -pprof; otherwise the mux is served as-is.
func (o obsOptions) handler(h http.Handler) http.Handler {
	if !o.pprof {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // net/http/pprof registers there
	return mux
}

// slowLogPath splices the instance tag before the path's extension:
// slow.jsonl + rank1-8401 → slow.rank1-8401.jsonl.
func slowLogPath(path, tag string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + tag + ext
}

// instanceTag names one instance by role, rank and port: "rank0-8400",
// "frontend-8399", or "8399" for a single-process server.
func instanceTag(role string, rank int, addr string) string {
	switch {
	case role == "frontend":
		return "frontend-" + portTag(addr)
	case rank >= 0:
		return "rank" + strconv.Itoa(rank) + "-" + portTag(addr)
	}
	return portTag(addr)
}

// portTag extracts the port of a listen address for instance tagging.
func portTag(addr string) string {
	if _, port, err := net.SplitHostPort(addr); err == nil {
		return port
	}
	return strings.NewReplacer("/", "_", ":", "_").Replace(addr)
}

// spawnReplicas runs replicated tcp serving: this process serves only the
// frontend on addr and forks the shards×replicas backends as processes of
// this binary, backend b = rep·shards + rank on addr's port + 1 + b. Each
// replica's shards rendezvous through their own pre-reserved comm registry.
// On sig the frontend drains, then the backends are stopped and reaped.
func spawnReplicas(top serve.Topology, addr string, sig <-chan os.Signal) {
	backends, err := serve.BackendAddrs(addr, top.Shards*top.Replicas)
	if err != nil {
		fatal(err)
	}
	registries := make([]string, top.Replicas)
	for rep := range registries {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		registries[rep] = ln.Addr().String()
		ln.Close()
	}
	children, err := comm.SpawnLocalRanks(len(backends)+1, func(i int) []string {
		return rankArgs(backends, registries, top.Shards, i-1)
	})
	if err != nil {
		fatal(err)
	}
	f, err := top.NewFrontend(addr, backends)
	if err != nil {
		comm.KillRanks(children)
		fatal(err)
	}
	fmt.Printf("frontend: %d shard groups × %d replicas on http://%s\n", top.Shards, top.Replicas, addr)
	err = serveUntil(top.HTTPServer(addr, f.Handler()), sig)
	f.Close()
	comm.StopRanks(children, serve.ShutdownTimeout)
	if err != nil {
		fatal(err)
	}
}

// rankArgs are the flags that make a spawned child backend b: rank
// b%shards of replica b/shards, listening on backends[b] and, for a
// multi-shard replica, meeting its peers at the replica's comm registry
// (hosted by its rank 0). They override the parent's flags the child
// inherits, -comm-listen included.
func rankArgs(backends, registries []string, shards, b int) []string {
	rep, r := b/shards, b%shards
	args := []string{
		"-replicas=1", "-spawn-local=false",
		fmt.Sprintf("-shards=%d", shards), fmt.Sprintf("-rank=%d", r),
		"-addr=" + backends[b],
	}
	if shards == 1 {
		return append(args, "-transport=inproc")
	}
	fleet := backends[rep*shards : rep*shards+shards]
	args = append(args, "-transport=tcp", "-peers="+strings.Join(fleet, ","))
	if r == 0 {
		return append(args, "-comm-listen="+registries[rep], "-comm-peers=")
	}
	return append(args, "-comm-listen=", "-comm-peers="+registries[rep])
}

// shardHTTPAddrs resolves a shard fleet's HTTP addresses: an explicit -peers
// list, or rank 0 on base and rank r on base's port + r.
func shardHTTPAddrs(peers, base string, shards int) ([]string, error) {
	if peers == "" {
		rest, err := serve.BackendAddrs(base, shards-1)
		return append([]string{base}, rest...), err
	}
	list := strings.Split(peers, ",")
	if len(list) != shards {
		return nil, fmt.Errorf("-peers lists %d addresses for %d shards", len(list), shards)
	}
	for i := range list {
		list[i] = strings.TrimSpace(list[i])
	}
	return list, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distgnn-serve:", err)
	os.Exit(1)
}
