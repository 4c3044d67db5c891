package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/obs"
)

// fleet.go stands a serving fleet up in one call: Shards ranks × Replicas
// bit-identical copies, each replica over its own comm fabric, every
// backend on an HTTP listener, and optionally the consistent-hash frontend
// over the replicas' shard groups. It is the one place that chooses between
// a single-process server and a shard rank, builds frontend groups, and
// lays backend addresses out after a frontend port.

const (
	// ReadHeaderTimeout bounds every fleet listener's wait for a request
	// header, so a client stalled mid-header cannot hold a connection open.
	ReadHeaderTimeout = 5 * time.Second
	// ShutdownTimeout bounds how long Fleet.Close lets in-flight requests
	// finish before it closes the remaining connections.
	ShutdownTimeout = 10 * time.Second
)

// Fabric names the comm fabric between one replica's shard ranks.
type Fabric string

const (
	FabricInproc Fabric = "inproc" // in-process endpoints (comm.NewProcFabric)
	FabricTCP    Fabric = "tcp"    // loopback sockets (comm.NewLoopbackTCP)
)

// Topology is the shape of a serving fleet and the knobs its backends share.
type Topology struct {
	// Shards ranks per replica, Replicas copies (both default 1).
	Shards, Replicas int
	// Fabric connects each replica's ranks. Empty picks FabricInproc for a
	// multi-shard replica and none for a 1-shard one, which is then a
	// single-process server (New) rather than a 1-rank shard (NewShard).
	Fabric Fabric
	// Addrs are the backend listen addresses, backend b = rep·Shards + rank
	// (nil: 127.0.0.1:0 each). BackendAddrs lays them out after a frontend.
	Addrs []string
	// Frontend, when set, is the listen address of a consistent-hash
	// frontend over the replicas' shard groups, configured by
	// FrontendConfig; the fleet fills in Groups (and Metrics and Tracer
	// under Obs).
	Frontend       string
	FrontendConfig FrontendConfig
	// PartitionSeed and RemoteCacheBytes go to every shard rank's
	// ShardConfig.
	PartitionSeed    int64
	RemoteCacheBytes int64
	// Obs, when set, gives each instance its own registry and tracer: role
	// "server" or "frontend", rank the shard rank (-1 for a single-process
	// server and the frontend), addr its listen address. Nil leaves cfg's
	// Metrics and Tracer on every backend.
	Obs func(role string, rank int, addr string) (*obs.Registry, *obs.Tracer)
	// Handler, when set, wraps every listener's handler.
	Handler func(http.Handler) http.Handler
}

// Fleet is a running serving fleet. Kill and AddFrontend must not run
// concurrently with Close.
type Fleet struct {
	// Servers and Addrs list the backends, backend b = rep·Shards + rank.
	Servers []*Server
	Addrs   []string
	// Frontend listens on FrontendAddr (zero without Topology.Frontend).
	Frontend     *Frontend
	FrontendAddr string

	top       Topology
	https     []*http.Server // backend b's listener
	frontends []*Frontend
	frontHTTP []*http.Server
	fabrics   [][]comm.Transport
}

// StartFleet builds every backend from the same checkpoint, so replicas
// are bit-identical, and returns once every backend and the frontend (with
// top.Frontend set) is listening.
func StartFleet(ds *datasets.Dataset, ckpt []byte, cfg Config, top Topology) (_ *Fleet, err error) {
	top.Shards, top.Replicas = max(top.Shards, 1), max(top.Replicas, 1)
	S, n := top.Shards, top.Shards*top.Replicas
	if top.Addrs == nil {
		top.Addrs = slices.Repeat([]string{"127.0.0.1:0"}, n)
	}
	if len(top.Addrs) != n {
		return nil, fmt.Errorf("serve: %d backend addresses for %d shards × %d replicas",
			len(top.Addrs), S, top.Replicas)
	}
	fl := &Fleet{top: top}
	var lns []net.Listener
	defer func() {
		if err != nil {
			for _, ln := range lns[len(fl.https):] { // bound, never served
				ln.Close()
			}
			fl.Close()
		}
	}()
	// Bind every listener first, so a taken address fails the fleet before
	// any checkpoint is loaded.
	for _, addr := range top.Addrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		fl.Addrs = append(fl.Addrs, ln.Addr().String())
	}
	for rep := 0; rep < top.Replicas; rep++ {
		eps, err := top.newFabric()
		if err != nil {
			return nil, err
		}
		fl.fabrics = append(fl.fabrics, eps)
		for r := 0; r < S; r++ {
			var ep comm.Transport
			if eps != nil {
				ep = eps[r]
			}
			srv, err := top.NewRank(ds, ckpt, cfg, ep, fl.Addrs[rep*S+r])
			if err != nil {
				return nil, err
			}
			fl.Servers = append(fl.Servers, srv)
			hs := top.HTTPServer("", srv.Handler())
			fl.https = append(fl.https, hs)
			go hs.Serve(lns[rep*S+r]) // returns at Kill or Close
		}
	}
	if top.Frontend != "" {
		if fl.Frontend, fl.FrontendAddr, err = fl.AddFrontend(top.Frontend); err != nil {
			return nil, err
		}
	}
	return fl, nil
}

// newFabric builds one replica's comm fabric, or nil for a single-process
// server.
func (top Topology) newFabric() ([]comm.Transport, error) {
	switch {
	case top.Fabric == "" && top.Shards == 1:
		return nil, nil
	case top.Fabric == "" || top.Fabric == FabricInproc:
		return comm.NewProcFabric(top.Shards), nil
	case top.Fabric == FabricTCP:
		return comm.NewLoopbackTCP(top.Shards, comm.DefaultTCPTimeout)
	}
	return nil, fmt.Errorf("serve: unknown fabric %q (inproc or tcp)", top.Fabric)
}

// NewRank builds the backend that listens on addr: a single-process server
// when fabric is nil, otherwise rank fabric.Self() of a shard fleet over
// it. The fabric stays the caller's to close.
func (top Topology) NewRank(ds *datasets.Dataset, ckpt []byte, cfg Config, fabric comm.Transport, addr string) (*Server, error) {
	rank := -1
	if fabric != nil {
		rank = fabric.Self()
	}
	if top.Obs != nil {
		cfg.Metrics, cfg.Tracer = top.Obs("server", rank, addr)
	}
	if fabric == nil {
		return New(ds, bytes.NewReader(ckpt), cfg)
	}
	return NewShard(ds, bytes.NewReader(ckpt), cfg, ShardConfig{
		Transport: fabric, PartitionSeed: top.PartitionSeed, RemoteCacheBytes: top.RemoteCacheBytes,
	})
}

// NewFrontend builds the frontend that will listen on addr over backends
// laid out as addrs: group g holds rank g of each named replica (of every
// replica when none is named).
func (top Topology) NewFrontend(addr string, addrs []string, replicas ...int) (*Frontend, error) {
	S := max(top.Shards, 1)
	fc := top.FrontendConfig
	fc.Groups = make([]GroupSpec, S)
	for g := range fc.Groups {
		fc.Groups[g].Key = "group-" + strconv.Itoa(g)
		for b := g; b < len(addrs); b += S {
			if len(replicas) == 0 || slices.Contains(replicas, b/S) {
				fc.Groups[g].Replicas = append(fc.Groups[g].Replicas, addrs[b])
			}
		}
	}
	if top.Obs != nil {
		fc.Metrics, fc.Tracer = top.Obs("frontend", -1, addr)
	}
	return NewFrontend(fc)
}

// HTTPServer is the http.Server every fleet listener runs: h, wrapped by
// top.Handler, behind the bounded header read.
func (top Topology) HTTPServer(addr string, h http.Handler) *http.Server {
	if top.Handler != nil {
		h = top.Handler(h)
	}
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}

// BackendAddrs lays n backends out after a frontend address: backend b
// listens on the frontend's port + 1 + b, so the frontend knows every
// backend address before any starts.
func BackendAddrs(frontend string, n int) ([]string, error) {
	host, portStr, err := net.SplitHostPort(frontend)
	port, perr := strconv.Atoi(portStr)
	if err != nil || perr != nil {
		return nil, fmt.Errorf("bad address %q: want host:port", frontend)
	}
	out := make([]string, n)
	for b := range out {
		out[b] = net.JoinHostPort(host, strconv.Itoa(port+1+b))
	}
	return out, nil
}

// AddFrontend starts another frontend on addr over the named replicas (all
// when none is named), e.g. over the survivors of a Kill, and returns it
// with its bound address. Close stops it.
func (fl *Fleet) AddFrontend(addr string, replicas ...int) (*Frontend, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	f, err := fl.top.NewFrontend(ln.Addr().String(), fl.Addrs, replicas...)
	if err != nil {
		ln.Close()
		return nil, "", err
	}
	hs := fl.top.HTTPServer("", f.Handler())
	fl.frontends = append(fl.frontends, f)
	fl.frontHTTP = append(fl.frontHTTP, hs)
	go hs.Serve(ln) // returns at Close
	return f, ln.Addr().String(), nil
}

// Kill closes one replica's listeners and their connections, as a crash
// would; its servers keep running until Close.
func (fl *Fleet) Kill(replica int) {
	for _, hs := range fl.https[replica*fl.top.Shards : (replica+1)*fl.top.Shards] {
		hs.Close()
	}
}

// Close drains the fleet: the frontends first, so what they are still
// proxying finds its backend up, then the backends — all within one
// ShutdownTimeout — and last the servers and the fabrics.
func (fl *Fleet) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), ShutdownTimeout)
	defer cancel()
	shutdown := func(hss []*http.Server) {
		for _, hs := range hss {
			if hs.Shutdown(ctx) != nil {
				hs.Close()
			}
		}
	}
	shutdown(fl.frontHTTP)
	for _, f := range fl.frontends {
		f.Close()
	}
	shutdown(fl.https)
	for _, s := range fl.Servers {
		s.Close()
	}
	for _, eps := range fl.fabrics {
		comm.CloseAll(eps)
	}
}
