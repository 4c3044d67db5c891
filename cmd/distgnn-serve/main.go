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
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
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
	frontendOn := flag.Bool("frontend", false,
		"serve the replicated frontend even with -replicas 1 (implied by -replicas >1)")
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

	if *replicas > 1 || *frontendOn {
		if *updatesOn {
			// Each replica group holds independent mutation state; an update
			// landing on one group would silently diverge the others.
			fatal(fmt.Errorf("-updates is not supported behind the replicated frontend (drop -replicas/-frontend)"))
		}
		runReplicated(cfg, replicatedOpts{
			checkpoint: *checkpoint, dataset: *dataset, scale: *scale, file: *file,
			addr: *addr, shards: *shards, replicas: *replicas,
			transport: *transport, spawnLocal: *spawnLocal, partSeed: *partSeed,
			obs: obsf,
		})
		return
	}

	// TCP shard rendezvous starts before the (deterministic) dataset
	// generation so spawned ranks overlap their graph builds.
	var tr comm.Transport
	var children []*exec.Cmd
	var httpAddrs []string
	tcpMode := *transport == "tcp" && *shards > 1
	if *shards > 1 {
		httpAddrs, err = shardHTTPAddrs(*peers, *addr, *shards)
		if err != nil {
			fatal(err)
		}
	}
	switch {
	case *transport != "inproc" && *transport != "tcp":
		fatal(fmt.Errorf("unknown -transport %q (inproc or tcp)", *transport))
	case tcpMode:
		var peerList []string
		if *commPeers != "" {
			peerList = strings.Split(*commPeers, ",")
		}
		tr, children, err = comm.JoinTCPFleet(comm.TCPConfig{
			Rank: *rank, N: *shards, Peers: peerList, Listen: *commListen, Timeout: *netTimeout,
		}, *spawnLocal, func(r int, registry string) []string {
			// Children get the full HTTP peer table and the parent's comm
			// registry; the parent's -comm-listen is its own address and
			// must not be inherited.
			return []string{
				"-spawn-local=false", "-transport=tcp", "-comm-listen=",
				fmt.Sprintf("-rank=%d", r),
				"-comm-peers=" + registry,
				"-peers=" + strings.Join(httpAddrs, ","),
				"-addr=" + httpAddrs[r],
			}
		})
		if err != nil {
			fatal(err)
		}
	case *spawnLocal:
		fatal(fmt.Errorf("-spawn-local requires -transport tcp and -shards >1"))
	}

	ds, name, err := loadDataset(*file, *dataset, *scale)
	if err != nil {
		fatal(err)
	}

	verbose := !tcpMode || *rank == 0
	if verbose {
		fmt.Printf("dataset %s: %d vertices, %d edges (avg degree %.1f), %d features, %d classes\n",
			name, ds.G.NumVertices, ds.G.NumEdges, ds.G.AvgDegree(),
			ds.Features.Cols, ds.NumClasses)
	}

	if *shards <= 1 {
		ckpt, err := os.Open(*checkpoint)
		if err != nil {
			fatal(err)
		}
		scfg := cfg
		scfg.Metrics, scfg.Tracer = obsf.wire("server", -1, portTag(*addr))
		srv, err := serve.New(ds, ckpt, scfg)
		ckpt.Close()
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("model %s from %s, inference mode %s\n",
			srv.Engine().Spec(), *checkpoint, srv.Engine().Mode())
		fmt.Printf("coalescer: max batch %d, max wait %v; caches: features %.0f MB, embeddings %.0f MB\n",
			*maxBatch, *maxWait, *featCacheMB, *embCacheMB)
		fmt.Printf("serving %s on http://%s\n", obsf.endpoints(), *addr)
		if err := http.ListenAndServe(*addr, obsf.handler(srv.Handler())); err != nil {
			fatal(err)
		}
		return
	}

	ckptBytes, err := os.ReadFile(*checkpoint)
	if err != nil {
		fatal(err)
	}
	httpPeers := make([]serve.PeerAddr, *shards)
	for r := range httpPeers {
		httpPeers[r] = serve.PeerAddr{Rank: r, Addr: httpAddrs[r]}
	}
	mkShard := func(fabric comm.Transport) *serve.Server {
		r := fabric.Self()
		scfg := cfg
		scfg.Metrics, scfg.Tracer = obsf.wire("server", r, "rank"+strconv.Itoa(r)+"-"+portTag(httpAddrs[r]))
		srv, err := serve.NewShard(ds, bytes.NewReader(ckptBytes), scfg, serve.ShardConfig{
			Transport: fabric, HTTPPeers: httpPeers, PartitionSeed: *partSeed,
		})
		if err != nil {
			fatal(err)
		}
		return srv
	}

	if tcpMode {
		srv := mkShard(tr)
		st := srv.StatsSnapshot().Shard
		fmt.Printf("shard rank %d/%d (tcp): owns %d vertices, static halo %d, model %s\n",
			*rank, *shards, st.OwnedVertices, st.HaloVerticesStatic, srv.Engine().Spec())
		fmt.Printf("serving %s on http://%s\n", obsf.endpoints(), httpAddrs[*rank])
		err := http.ListenAndServe(httpAddrs[*rank], obsf.handler(srv.Handler()))
		comm.KillRanks(children)
		fatal(err)
	}

	// inproc: every shard a goroutine in this process over its own
	// endpoint of an in-process fabric — partition parallelism without
	// process management.
	errc := make(chan error, *shards)
	for r, ep := range comm.NewProcFabric(*shards) {
		srv := mkShard(ep)
		st := srv.StatsSnapshot().Shard
		fmt.Printf("shard rank %d/%d (inproc): owns %d vertices, static halo %d, serving on http://%s\n",
			r, *shards, st.OwnedVertices, st.HaloVerticesStatic, httpAddrs[r])
		go func(r int, srv *serve.Server) {
			errc <- http.ListenAndServe(httpAddrs[r], obsf.handler(srv.Handler()))
		}(r, srv)
	}
	fmt.Printf("model %s, %d shards, endpoints %s\n",
		serve.Arch(*arch), *shards, obsf.endpoints())
	fatal(<-errc)
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

// replicatedOpts carries the topology flags into the replicated runner.
type replicatedOpts struct {
	checkpoint, dataset, file string
	scale                     float64
	addr                      string
	shards, replicas          int
	transport                 string
	spawnLocal                bool
	partSeed                  int64
	obs                       obsOptions
}

// obsOptions carries the observability flags: each server instance (rank,
// replica, or frontend) wires its own registry and tracer so scrape-time
// metric funcs read that instance's counters and slow logs never interleave.
type obsOptions struct {
	metrics       bool
	trace         bool
	pprof         bool
	slowLog       string
	slowThreshold time.Duration
	ring          int
}

// wire builds one instance's registry and tracer (nil when the respective
// leg is off — the obs plane's disabled-is-free contract). The slow log
// lands in a per-instance file keyed by tag (e.g. "rank0-8400",
// "frontend-8399"), so spawned ranks sharing the flag never share a file.
func (o obsOptions) wire(role string, rank int, tag string) (*obs.Registry, *obs.Tracer) {
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
			f, err := os.OpenFile(slowLogPath(o.slowLog, tag),
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
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// endpoints renders the endpoint list for startup banners.
func (o obsOptions) endpoints() string {
	s := "/predict /embed /stats /healthz"
	if o.metrics {
		s += " /metrics"
	}
	if o.trace {
		s += " /debug/trace/recent"
	}
	if o.pprof {
		s += " /debug/pprof/"
	}
	return s
}

// slowLogPath splices the instance tag before the path's extension:
// slow.jsonl + rank1-8401 → slow.rank1-8401.jsonl.
func slowLogPath(path, tag string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + tag + ext
}

// portTag extracts the port of a listen address for instance tagging.
func portTag(addr string) string {
	if _, port, err := net.SplitHostPort(addr); err == nil {
		return port
	}
	return strings.NewReplacer("/", "_", ":", "_").Replace(addr)
}

// runReplicated stands up R bit-identical serving replicas (single servers,
// or whole shard fleets when -shards >1) behind the consistent-hash
// frontend on -addr. Backend b = rep*shards + rank listens on -addr's
// port + 1 + b, so the frontend knows every address up front.
//
// inproc: every backend runs in this process (fleets each get their own
// in-process fabric). tcp requires -spawn-local: this process serves ONLY the
// frontend and forks the shards×replicas backends; each fleet rendezvouses
// through its own pre-reserved comm registry port. Either way the replicas
// share the checkpoint and partition seed, so they are bit-identical and
// any of them can answer for its group.
func runReplicated(cfg serve.Config, o replicatedOpts) {
	S, R := o.shards, o.replicas
	if S < 1 || R < 1 {
		fatal(fmt.Errorf("-shards and -replicas must be ≥1"))
	}
	backends, err := shardHTTPAddrs("", o.addr, S*R+1)
	if err != nil {
		fatal(err)
	}
	backends = backends[1:] // index 0 is the frontend itself
	groups := make([]serve.GroupSpec, S)
	for g := range groups {
		groups[g].Key = fmt.Sprintf("group-%d", g)
		for rep := 0; rep < R; rep++ {
			groups[g].Replicas = append(groups[g].Replicas, backends[rep*S+g])
		}
	}

	switch o.transport {
	case "inproc":
		ds, name, err := loadDataset(o.file, o.dataset, o.scale)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("dataset %s: %d vertices, %d edges, %d features, %d classes\n",
			name, ds.G.NumVertices, ds.G.NumEdges, ds.Features.Cols, ds.NumClasses)
		ckptBytes, err := os.ReadFile(o.checkpoint)
		if err != nil {
			fatal(err)
		}
		for rep := 0; rep < R; rep++ {
			var httpPeers []serve.PeerAddr
			for r := 0; r < S; r++ {
				httpPeers = append(httpPeers, serve.PeerAddr{Rank: r, Addr: backends[rep*S+r]})
			}
			var eps []comm.Transport
			if S > 1 {
				eps = comm.NewProcFabric(S)
			}
			for r := 0; r < S; r++ {
				addr := backends[rep*S+r]
				scfg := cfg
				scfg.Metrics, scfg.Tracer = o.obs.wire("server", r,
					"rank"+strconv.Itoa(r)+"-"+portTag(addr))
				var srv *serve.Server
				if S == 1 {
					srv, err = serve.New(ds, bytes.NewReader(ckptBytes), scfg)
				} else {
					srv, err = serve.NewShard(ds, bytes.NewReader(ckptBytes), scfg, serve.ShardConfig{
						Transport: eps[r], HTTPPeers: httpPeers, PartitionSeed: o.partSeed,
					})
				}
				if err != nil {
					fatal(err)
				}
				fmt.Printf("replica %d rank %d/%d on http://%s\n", rep, r, S, addr)
				go func(addr string, srv *serve.Server) {
					fatal(http.ListenAndServe(addr, o.obs.handler(srv.Handler())))
				}(addr, srv)
			}
		}
	case "tcp":
		if !o.spawnLocal {
			fatal(fmt.Errorf("replicated tcp serving requires -spawn-local (the frontend forks the backend fleets)"))
		}
		// Each fleet rendezvouses through its own registry address,
		// reserved here so every child can be told where to meet.
		registries := make([]string, R)
		for rep := range registries {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			registries[rep] = ln.Addr().String()
			ln.Close()
		}
		children, err := comm.SpawnLocalRanks(S*R+1, func(i int) []string {
			rep, r := (i-1)/S, (i-1)%S
			args := []string{
				"-frontend=false", "-replicas=1", "-spawn-local=false",
				fmt.Sprintf("-shards=%d", S), fmt.Sprintf("-rank=%d", r),
				"-addr=" + backends[rep*S+r],
			}
			if S > 1 {
				fleet := backends[rep*S : rep*S+S]
				args = append(args, "-transport=tcp", "-peers="+strings.Join(fleet, ","))
				if r == 0 {
					args = append(args, "-comm-listen="+registries[rep], "-comm-peers=")
				} else {
					args = append(args, "-comm-listen=", "-comm-peers="+registries[rep])
				}
			} else {
				args = append(args, "-transport=inproc")
			}
			return args
		})
		if err != nil {
			fatal(err)
		}
		comm.KillRanksOnSignal(children)
	default:
		fatal(fmt.Errorf("unknown -transport %q (inproc or tcp)", o.transport))
	}

	freg, ftracer := o.obs.wire("frontend", -1, "frontend-"+portTag(o.addr))
	f, err := serve.NewFrontend(serve.FrontendConfig{
		Groups: groups, Metrics: freg, Tracer: ftracer,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("frontend: %d shard groups × %d replicas, endpoints %s /reload on http://%s\n",
		S, R, o.obs.endpoints(), o.addr)
	fatal(http.ListenAndServe(o.addr, o.obs.handler(f.Handler())))
}

// shardHTTPAddrs resolves the fleet's HTTP addresses: an explicit -peers
// list, or rank r at base's port + r.
func shardHTTPAddrs(peers, base string, shards int) ([]string, error) {
	if peers != "" {
		list := strings.Split(peers, ",")
		if len(list) != shards {
			return nil, fmt.Errorf("-peers lists %d addresses for %d shards", len(list), shards)
		}
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		return list, nil
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("bad -addr %q: %v", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("bad -addr port %q: %v", portStr, err)
	}
	out := make([]string, shards)
	for r := range out {
		out[r] = net.JoinHostPort(host, strconv.Itoa(port+r))
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distgnn-serve:", err)
	os.Exit(1)
}
