package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/minibatch"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/obs"
	"distgnn/internal/serve"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
	"distgnn/internal/train"
)

// serveConfig sizes a serving workload.
type serveConfig struct {
	Scale  float64 // reddit-sim scale; 0.5 is the distgnn-serve default
	Hidden int
	// Layers is 2: exact 3-hop neighbourhoods cover most of the graph and
	// leave too few requests per run for a steady tail.
	Layers        int
	FixtureEpochs int // training epochs of the served checkpoint
	SetupReps     int // set-ups before the load, and again after it

	// Server: the distgnn-serve defaults, except that EmbedCacheShare,
	// when set, sizes the embedding cache to hold that share of the
	// vertices' output rows instead of the default 16 MiB (which holds
	// every row of this graph, so every repeated id would hit).
	MaxBatch          int
	MaxWait           time.Duration
	FeatureCacheBytes int64
	EmbedCacheBytes   int64
	EmbedCacheShare   float64

	// Readers are closed-loop clients, each sending a fixed, seeded
	// sequence of ReadRate·seconds /predict requests, so cache hit ratios
	// are a property of the workload, not of how fast it ran. ReadRate is
	// sized from the measured throughput so a run lasts about --seconds.
	// Zipf > 0 is the exponent of a Zipf-like skew over vertex ids
	// (P(rank k) ∝ 1/k^Zipf); 0 draws them uniformly.
	Readers  int
	ReadRate float64
	Zipf     float64
	// CheckEvery: every CheckEvery-th answer of each reader is compared
	// bit for bit against the reference.
	CheckEvery int
	// ReplayRequests is how many requests of the sequence the traced run
	// replays through Engine.Infer, FullSample and Local.Gather.
	ReplayRequests int

	// Writer (serve-rw only): one open-loop client POSTing one /update
	// per event of a seeded two-state MMPP edge stream from
	// datasets.EdgeStream with its default rates, so the POST schedule is
	// the MMPP schedule itself.
	Updates bool
	// CompactEdges is the server's compaction threshold; 4096 is the
	// distgnn-serve default (-compact-threshold 0).
	CompactEdges int
}

// serveReadFull: ids skewed with exponent 0.8, inside the 0.64–0.83 range
// Breslau et al. measured on web-proxy request traces ("Web Caching and
// Zipf-like Distributions", INFOCOM 1999). The embedding cache holds 1/16
// of the rows, which gives an LRU hit ratio near 0.3 under that skew, so
// the median request misses and runs the coalescer and the engine.
var serveReadFull = serveConfig{
	Scale: 0.5, Hidden: 64, Layers: 2, FixtureEpochs: 10, SetupReps: 9,
	MaxBatch: 16, MaxWait: 2 * time.Millisecond, FeatureCacheBytes: 64 << 20, EmbedCacheShare: 1.0 / 16,
	Readers: 2, ReadRate: 200, Zipf: 0.8, CheckEvery: 1, ReplayRequests: 1000,
}

var serveRWFull = serveConfig{
	Scale: 0.5, Hidden: 64, Layers: 2, FixtureEpochs: 10, SetupReps: 9,
	MaxBatch: 16, MaxWait: 2 * time.Millisecond, FeatureCacheBytes: 64 << 20, EmbedCacheBytes: 16 << 20,
	Readers: 1, ReadRate: 170, CheckEvery: 4, ReplayRequests: 1000,
	Updates: true, CompactEdges: 4096,
}

func (c serveConfig) spec(seed int64) (datasets.Spec, error) {
	spec, err := datasets.SpecFor("reddit-sim", c.Scale)
	spec.Seed = seed
	return spec, err
}

func (c serveConfig) server(ds *datasets.Dataset, tracer *obs.Tracer) serve.Config {
	embed := c.EmbedCacheBytes
	if c.EmbedCacheShare > 0 {
		rows := int64(math.Ceil(c.EmbedCacheShare * float64(ds.G.NumVertices)))
		embed = rows * int64(4*ds.NumClasses+featstore.CacheEntryOverhead)
	}
	return serve.Config{
		Arch: serve.ArchGraphSAGE, Hidden: c.Hidden, NumLayers: c.Layers,
		MaxBatch: c.MaxBatch, MaxWait: c.MaxWait,
		FeatureCacheBytes: c.FeatureCacheBytes, EmbedCacheBytes: embed,
		EnableUpdates: c.Updates, CompactThreshold: c.CompactEdges,
		Metrics: obs.NewRegistry(), Tracer: tracer,
	}
}

// fixture trains the served checkpoint: the train → save handoff
// distgnn-train performs. It is not part of set-up.
func (c serveConfig) fixture(ds *datasets.Dataset, seed int64) ([]byte, error) {
	res, err := train.SingleSocket(ds, train.SingleConfig{
		Model:  model.Config{Hidden: c.Hidden, NumLayers: c.Layers, Seed: seed},
		Epochs: c.FixtureEpochs, LR: trainLR, WeightDecay: trainWD, UseAdam: true,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := nn.WriteParams(&buf, res.Model.Params()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reference is the full-graph forward of the checkpoint on g: the logits
// every exact-mode answer must equal bit for bit.
func (c serveConfig) reference(ds *datasets.Dataset, ckpt []byte, seed int64) (*tensor.Matrix, error) {
	m, err := model.New(ds.G, model.Config{
		InDim: ds.Features.Cols, OutDim: ds.NumClasses, Hidden: c.Hidden, NumLayers: c.Layers, Seed: seed,
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := nn.ReadParams(bytes.NewReader(ckpt), m.Params()); err != nil {
		return nil, err
	}
	return m.Forward(ds.Features, false), nil
}

// sequences draws each reader's fixed request sequence.
func (c serveConfig) sequences(seed int64, n int, seconds float64) [][]int32 {
	count := int(math.Round(c.ReadRate * seconds))
	if count < 1 {
		count = 1
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n) // which vertices are hot
	var zipf zipfRanks
	if c.Zipf > 0 {
		zipf = newZipfRanks(c.Zipf, n)
	}
	seqs := make([][]int32, c.Readers)
	for i := range seqs {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
		seqs[i] = make([]int32, count)
		for j := range seqs[i] {
			if zipf != nil {
				seqs[i][j] = int32(perm[zipf.draw(rng)])
			} else {
				seqs[i][j] = int32(rng.Intn(n))
			}
		}
	}
	return seqs
}

// zipfRanks draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverting the
// cumulative weights. Unlike rand.Zipf it accepts s ≤ 1, where measured
// request skews lie.
type zipfRanks []float64

func newZipfRanks(s float64, n int) zipfRanks {
	cum := make(zipfRanks, n)
	var t float64
	for k := range cum {
		t += math.Pow(float64(k+1), -s)
		cum[k] = t
	}
	return cum
}

func (z zipfRanks) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z, rng.Float64()*z[len(z)-1])
}

// endpoint is a serve.Server behind a loopback HTTP listener.
type endpoint struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

func listen(srv *serve.Server, conns int) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		},
	}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return e, nil
}

// close stops the listener, waits for it, and stops the server.
func (e *endpoint) close() {
	e.hs.Close()
	<-e.done
	e.client.CloseIdleConnections()
	e.srv.Close()
}

// predict sends one /predict and returns the whole response body.
func (e *endpoint) predict(v int32) ([]byte, error) {
	resp, err := e.client.Get(e.base + "/predict?vertex=" + strconv.Itoa(int(v)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/predict: status %d", resp.StatusCode)
	}
	return body, nil
}

// logitsOf decodes a /predict answer for vertex v.
func logitsOf(v int32, body []byte) ([]float32, error) {
	var pr serve.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, err
	}
	if pr.Vertex != v {
		return nil, fmt.Errorf("answer for vertex %d, asked %d", pr.Vertex, v)
	}
	return pr.Logits, nil
}

func (e *endpoint) update(edges [][2]int32) error {
	body, err := json.Marshal(serve.UpdateRequest{Edges: edges})
	if err != nil {
		return err
	}
	resp, err := e.client.Post(e.base+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/update: status %d", resp.StatusCode)
	}
	return err
}

// scrape reads the server's Prometheus exposition into name → value.
func (e *endpoint) scrape() (map[string]float64, error) {
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// answer is one sampled /predict answer kept for checking.
type answer struct {
	v      int32
	logits []float32
}

// readLoad is what the closed-loop readers measured.
type readLoad struct {
	lat     latencies
	wall    time.Duration
	answers []answer
	mem     memDelta
	before  serve.Stats
	after   serve.Stats
}

// runReaders sends every reader's sequence, each on its own connection,
// and waits for all of them. A request's latency ends when its whole
// answer has arrived; answers kept for checking are decoded after that.
func (c serveConfig) runReaders(e *endpoint, seqs [][]int32) readLoad {
	var out readLoad
	per := make([]latencies, len(seqs))
	ans := make([][]answer, len(seqs))
	out.before = e.srv.StatsSnapshot()
	m0 := memMark()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, seq := range seqs {
		wg.Add(1)
		go func(i int, seq []int32) {
			defer wg.Done()
			for j, v := range seq {
				keep := j%c.CheckEvery == 0
				s := time.Now()
				body, err := e.predict(v)
				d := time.Since(s)
				var logits []float32
				if err == nil && keep {
					logits, err = logitsOf(v, body)
				}
				if err != nil {
					per[i].fail()
					continue
				}
				per[i].ok(d)
				if keep {
					ans[i] = append(ans[i], answer{v, logits})
				}
			}
		}(i, seq)
	}
	wg.Wait()
	out.wall = time.Since(t0)
	out.mem = memSince(m0)
	out.after = e.srv.StatsSnapshot()
	for i := range per {
		out.lat.ms = append(out.lat.ms, per[i].ms...)
		out.lat.failed += per[i].failed
		out.answers = append(out.answers, ans[i]...)
	}
	return out
}

// setupServer builds the dataset and server SetupReps times and returns
// the last, with the set-up times. Set-up is generation plus serve.New;
// the checkpoint is a fixture made before.
func (c serveConfig) setupServer(spec datasets.Spec, ckpt []byte, tracer *obs.Tracer) (*datasets.Dataset, *serve.Server, setupTimer, error) {
	var ds *datasets.Dataset
	var srv *serve.Server
	var setup setupTimer
	for i := 0; i < c.SetupReps; i++ {
		if srv != nil {
			srv.Close()
		}
		setup.start()
		var err error
		ds, err = datasets.Generate(spec)
		if err == nil {
			srv, err = serve.New(ds, bytes.NewReader(ckpt), c.server(ds, tracer))
		}
		setup.stop()
		if err != nil {
			return nil, nil, setup, err
		}
	}
	return ds, srv, setup, nil
}

// servePrep is the common part of both serving workloads: the fixture
// and the set-up server behind its listener.
type servePrep struct {
	spec  datasets.Spec
	ds    *datasets.Dataset
	ckpt  []byte
	ep    *endpoint
	setup setupTimer
}

func (c serveConfig) prepare(r *report, o options) (*servePrep, bool) {
	spec, err := c.spec(o.seed)
	if err != nil {
		r.problem(err)
		return nil, false
	}
	fds, err := datasets.Generate(spec)
	if err != nil {
		r.problem(err)
		return nil, false
	}
	ckpt, err := c.fixture(fds, o.seed)
	if err != nil {
		r.problem(fmt.Errorf("fixture: %w", err))
		return nil, false
	}
	ds, srv, setup, err := c.setupServer(spec, ckpt, nil)
	if err != nil {
		r.problem(fmt.Errorf("set-up: %w", err))
		return nil, false
	}
	r.e2e["setup_s"] = median(setup.cpu)
	ep, err := listen(srv, c.Readers+1)
	if err != nil {
		srv.Close()
		r.problem(err)
		return nil, false
	}
	r.note("graph: %d vertices, %d edges; %d-layer h%d checkpoint; set-up %.4f CPU s, %.4f wall s (medians of %d)",
		ds.G.NumVertices, ds.G.NumEdges, c.Layers, c.Hidden, median(setup.cpu), median(setup.wall), c.SetupReps)
	return &servePrep{spec: spec, ds: ds, ckpt: ckpt, ep: ep, setup: setup}, true
}

// setupAfter repeats set-up once the load is over, so the reported median
// spans the run rather than one moment of the host's load.
func (c serveConfig) setupAfter(r *report, p *servePrep) {
	_, srv, more, err := c.setupServer(p.spec, p.ckpt, nil)
	if err != nil {
		r.problem(fmt.Errorf("set-up: %w", err))
		return
	}
	srv.Close()
	r.e2e["setup_s"] = median(append(p.setup.cpu, more.cpu...))
}

// readMetrics turns a measured read load into metrics.
func readMetrics(r *report, load readLoad) {
	n := len(load.lat.ms)
	r.ops(int64(n), load.lat.failed)
	p50, _ := percentile(load.lat.ms, 50)
	r.e2e["op_ms"] = p50
	ok := int64(n) - load.lat.failed
	r.layer["qps"] = float64(ok) / load.wall.Seconds()
	if supported(n, 99) {
		r.layer["p99_ms"], _ = percentile(load.lat.ms, 99)
	}
	q, v, _ := tail(load.lat.ms)
	r.note("/predict: %d requests (%d failed), %.0f qps, p50 %.4f ms, p%g %.4f ms (n=%d)",
		n, load.lat.failed, r.layer["qps"], p50, q, v, n)
	d := func(a, b int64) float64 { return float64(b - a) }
	b, a := load.before, load.after
	if batches := d(b.Coalescer.Batches, a.Coalescer.Batches); batches > 0 {
		r.layer["serve.coalescer.avg_batch"] = d(b.Coalescer.Requests, a.Coalescer.Requests) / batches
	}
	ratio := func(h0, h1, m0, m1 int64) float64 {
		if t := d(h0, h1) + d(m0, m1); t > 0 {
			return d(h0, h1) / t
		}
		return 0
	}
	r.layer["serve.embed_cache.hit_ratio"] = ratio(b.EmbeddingCache.Hits, a.EmbeddingCache.Hits, b.EmbeddingCache.Misses, a.EmbeddingCache.Misses)
	r.layer["featstore.cache.hit_ratio"] = ratio(b.FeatureCache.Hits, a.FeatureCache.Hits, b.FeatureCache.Misses, a.FeatureCache.Misses)
	r.layer["runtime.alloc_kb_per_request"] = float64(load.mem.allocBytes) / 1024 / float64(n)
	r.layer["runtime.gc_pause_ms_per_s"] = ms(load.mem.pause) / load.wall.Seconds()
	r.note("coalescer avg batch %.2f, embedding-cache hit ratio %.3f, feature-cache hit ratio %.3f",
		r.layer["serve.coalescer.avg_batch"], r.layer["serve.embed_cache.hit_ratio"], r.layer["featstore.cache.hit_ratio"])
}

// checkAnswers compares sampled answers with reference rows bit for bit.
func checkAnswers(r *report, what string, answers []answer, row func(v int32) []float32) {
	for _, a := range answers {
		want := row(a.v)
		same := len(a.logits) == len(want)
		for j := 0; same && j < len(want); j++ {
			same = math.Float32bits(a.logits[j]) == math.Float32bits(want[j])
		}
		r.check(same, "%s: vertex %d logits differ from the reference", what, a.v)
	}
}

// servedLoss is the cross-entropy of the checked /predict answers against
// the vertices' labels, one term per distinct vertex: the loss the served
// model shows on the vertices it answered. Counting each vertex once keeps
// a few hot ids from deciding it.
func servedLoss(r *report, answers []answer, labels []int32) {
	seen := map[int32]bool{}
	var rows []answer
	for _, a := range answers {
		if !seen[a.v] {
			seen[a.v] = true
			rows = append(rows, a)
		}
	}
	if len(rows) == 0 {
		r.problem(fmt.Errorf("no checked answers to score"))
		return
	}
	logits := tensor.New(len(rows), len(rows[0].logits))
	lab := make([]int32, len(rows))
	mask := make([]int32, len(rows))
	for i, a := range rows {
		copy(logits.Row(i), a.logits)
		lab[i] = labels[a.v]
		mask[i] = int32(i)
	}
	loss, _ := nn.MaskedCrossEntropy(logits, lab, mask)
	r.check(!math.IsNaN(loss) && !math.IsInf(loss, 0), "served loss %v is not finite", loss)
	r.e2e["final_loss"] = loss
	r.note("served loss %.6f over %d distinct vertices of %d checked answers", loss, len(rows), len(answers))
}

// runServeRead: two closed-loop readers, Zipf-skewed ids, exact mode.
func runServeRead(c serveConfig, o options) *report {
	r := newReport("serve-read")
	p, ok := c.prepare(r, o)
	if !ok {
		return r
	}
	seqs := c.sequences(o.seed, p.ds.G.NumVertices, o.seconds)
	settle()
	heap := startHeapPeak()
	load := c.runReaders(p.ep, seqs)
	r.layer["runtime.peak_heap_mb"] = heap.stopMB()
	p.ep.close()
	readMetrics(r, load)
	c.setupAfter(r, p)
	ref, err := c.reference(p.ds, p.ckpt, o.seed)
	if err != nil {
		r.problem(fmt.Errorf("reference: %w", err))
		return r
	}
	checkAnswers(r, "/predict vs full-graph Forward", load.answers, func(v int32) []float32 { return ref.Row(int(v)) })
	servedLoss(r, load.answers, p.ds.Labels)
	if o.trace {
		traceServe(r, c, p, seqs, nil, load)
	}
	return r
}

// traceServe repeats the load against a fresh server with the tracer on,
// reads the per-stage means from /metrics, and replays the request
// sequence through the engine's layers one call at a time.
func traceServe(r *report, c serveConfig, p *servePrep, seqs [][]int32, sched *schedule, untraced readLoad) {
	tracer := obs.NewTracer(obs.TracerConfig{Role: "server", Rank: -1})
	_, srv, _, err := c.setupServer(p.spec, p.ckpt, tracer)
	if err != nil {
		r.problem(fmt.Errorf("traced set-up: %w", err))
		return
	}
	ep, err := listen(srv, c.Readers+1)
	if err != nil {
		srv.Close()
		r.problem(err)
		return
	}
	before, err1 := ep.scrape()
	settle()
	var load readLoad
	if sched != nil {
		var w writeLoad
		load, w = c.readWrite(ep, seqs, *sched)
		r.ops(int64(len(w.lat.ms)), w.lat.failed)
	} else {
		load = c.runReaders(ep, seqs)
	}
	after, err2 := ep.scrape()
	ep.close()
	if err1 != nil || err2 != nil {
		r.problem(fmt.Errorf("scrape: %v, %v", err1, err2))
		return
	}
	r.ops(int64(len(load.lat.ms)), load.lat.failed)
	for _, st := range []string{"queue_wait", "sample", "gather", "forward", "encode"} {
		key := `distgnn_serve_stage_duration_seconds_%s{stage="` + st + `"}`
		sum := after[fmt.Sprintf(key, "sum")] - before[fmt.Sprintf(key, "sum")]
		cnt := after[fmt.Sprintf(key, "count")] - before[fmt.Sprintf(key, "count")]
		if cnt > 0 {
			r.layer["serve.stage."+st+"_ms"] = 1000 * sum / cnt
		}
	}
	tp50, _ := percentile(load.lat.ms, 50)
	up50, _ := percentile(untraced.lat.ms, 50)
	r.layer["trace_overhead"] = tp50 / up50

	// Layer replay on the base graph, in request order.
	eng, err := serve.NewEngine(p.ds, serve.ModelSpec{
		Arch: serve.ArchGraphSAGE, Hidden: c.Hidden, NumLayers: c.Layers,
	}, nil, c.FeatureCacheBytes)
	if err == nil {
		err = nn.ReadParams(bytes.NewReader(p.ckpt), eng.Params())
	}
	if err != nil {
		r.problem(fmt.Errorf("replay engine: %w", err))
		return
	}
	local := featstore.NewLocal(spmm.RowsOf(p.ds.Features), featstore.NewCache[int32, []float32](c.FeatureCacheBytes, 0))
	var infer, sample, gather, frontier []float64
	for i := 0; i < c.ReplayRequests; i++ {
		seq := seqs[i%len(seqs)]
		v := seq[(i/len(seqs))%len(seq)]
		t0 := time.Now()
		_, err := eng.Infer([]int32{v})
		t1 := time.Now()
		s := minibatch.FullSample(p.ds.G, []int32{v}, c.Layers)
		t2 := time.Now()
		_, gerr := local.Gather(s.InputFrontier())
		t3 := time.Now()
		r.check(err == nil && gerr == nil, "replay of vertex %d: %v %v", v, err, gerr)
		infer = append(infer, ms(t1.Sub(t0)))
		sample = append(sample, ms(t2.Sub(t1)))
		gather = append(gather, ms(t3.Sub(t2)))
		frontier = append(frontier, float64(len(s.InputFrontier())))
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	r.layer["serve.engine_infer_ms"] = mean(infer)
	r.layer["minibatch.sample_ms"] = mean(sample)
	r.layer["featstore.gather_ms"] = mean(gather)
	r.layer["minibatch.frontier_mean"] = mean(frontier)
}
