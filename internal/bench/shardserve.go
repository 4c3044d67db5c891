package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/serve"
	"distgnn/internal/train"
)

// shardserve.go is the abl-shardserve ablation: partition-parallel serving
// under open-loop traffic. A fleet of 1, 2, or 4 shard ranks (in-process
// fabric, real HTTP listeners) is driven by a request replayer at a fixed
// offered rate, with two arrival processes at the same mean rate: Poisson,
// and a 2-state Markov-modulated Poisson process (MMPP). Mean-rate load
// generators summarize bursty traffic poorly (Asanjarani & Nazarathy,
// arXiv:1802.08400 — the MMPP's index of dispersion far exceeds Poisson's),
// so the MMPP arm shows what the tail looks like when the same average
// load arrives in bursts: queueing the Poisson arm never forms. Reported
// per arm: sustained QPS, p50/p95/p99 latency measured from scheduled
// arrival (no coordinated omission), halo-fetch hit rate, and the routed
// fraction. With Options.JSON set the rows land in BENCH_shardserve.json.

const (
	shardServeHidden   = 16
	shardServeLayers   = 2
	shardServeRequests = 240
	shardServeWorkSet  = 160
	shardServeCalib    = 24 // closed-loop requests used to estimate service time
	// MMPP shape: quiet/burst rates ±75% around the mean with equal mean
	// sojourn times, i.e. a 7× rate swing at an unchanged average.
	mmppQuietFactor = 0.25
	mmppBurstFactor = 1.75
	mmppSojournReqs = 20 // mean arrivals per state visit
)

// ShardServeRow is one (shards, arrival-process) measurement.
type ShardServeRow struct {
	Shards      int     `json:"shards"`
	Arrivals    string  `json:"arrivals"`
	OfferedQPS  float64 `json:"offered_qps"`
	BurstIndex  float64 `json:"burst_index"` // CV² of inter-arrivals (Poisson ≈ 1)
	Requests    int     `json:"requests"`
	QPS         float64 `json:"qps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	HaloHitRate float64 `json:"halo_hit_rate"`
	RoutedFrac  float64 `json:"routed_frac"`
}

// ShardServeReport is the BENCH_shardserve.json schema.
type ShardServeReport struct {
	Experiment string          `json:"experiment"`
	Scale      float64         `json:"scale"`
	Results    []ShardServeRow `json:"results"`
	// MMPPOverPoissonP95S2 is MMPP p95 / Poisson p95 at 2 shards — the
	// burstiness tail penalty a mean-rate generator would miss (≥ 1).
	MMPPOverPoissonP95S2 float64 `json:"mmpp_over_poisson_p95_s2"`
	// P95RatioS4OverS1Poisson is 4-shard p95 / 1-shard p95 under Poisson.
	// Below 1 sharding relieves the queue; on a single shared-core machine
	// (CI, this loopback harness) all shards compete for the same cores and
	// pay halo-fetch + routing overhead, so values slightly above 1 are the
	// cost of distribution, not a regression — the win needs cores (or
	// sockets) per shard, which is the deployment the paper targets.
	P95RatioS4OverS1Poisson float64 `json:"p95_ratio_s4_over_s1_poisson"`
}

// benchShardFleet is a live fleet: HTTP addresses, per-rank servers for
// stats, and a teardown.
type benchShardFleet struct {
	addrs   []string
	servers []*serve.Server
	https   []*http.Server
	fabric  []comm.Transport
}

func startShardFleet(ds *datasets.Dataset, ckpt []byte, shards int) (*benchShardFleet, error) {
	return startShardFleetCfg(ds, ckpt, shards, nil)
}

// startShardFleetCfg is startShardFleet with a config hook: mod (when
// non-nil) edits the per-rank serve.Config before the fleet starts —
// abl-stream uses it to switch on the mutation plane.
func startShardFleetCfg(ds *datasets.Dataset, ckpt []byte, shards int,
	mod func(*serve.Config)) (*benchShardFleet, error) {
	f := &benchShardFleet{fabric: comm.NewProcFabric(shards)}
	var lns []net.Listener
	var peers []serve.PeerAddr
	for r := 0; r < shards; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		lns = append(lns, ln)
		f.addrs = append(f.addrs, ln.Addr().String())
		peers = append(peers, serve.PeerAddr{Rank: r, Addr: ln.Addr().String()})
	}
	cfg := serve.Config{
		Arch: serve.ArchGraphSAGE, Hidden: shardServeHidden, NumLayers: shardServeLayers,
		MaxBatch: 8, MaxWait: time.Millisecond,
		FeatureCacheBytes: 32 << 20, EmbedCacheBytes: 0,
	}
	if mod != nil {
		mod(&cfg)
	}
	for r := 0; r < shards; r++ {
		srv, err := serve.NewShard(ds, bytes.NewReader(ckpt), cfg, serve.ShardConfig{
			Transport: f.fabric[r], HTTPPeers: peers,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		hs := &http.Server{Handler: srv.Handler()}
		f.https = append(f.https, hs)
		go hs.Serve(lns[r])
	}
	return f, nil
}

func (f *benchShardFleet) close() {
	for _, hs := range f.https {
		hs.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	comm.CloseAll(f.fabric)
}

// poissonArrivals draws inter-arrival gaps Exp(mean).
func poissonArrivals(rng *rand.Rand, n int, mean time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	t := time.Duration(0)
	for i := range out {
		t += time.Duration(rng.ExpFloat64() * float64(mean))
		out[i] = t
	}
	return out
}

// mmppArrivals draws arrival times from a 2-state MMPP with the same mean
// rate as poissonArrivals(mean): a quiet state at mmppQuietFactor× the mean
// rate and a burst state at mmppBurstFactor×, each visited for an
// exponential sojourn averaging mmppSojournReqs mean-rate arrivals. State
// switches modulate the thinning of time, so bursts pack arrivals the
// average conceals.
func mmppArrivals(rng *rand.Rand, n int, mean time.Duration) []time.Duration {
	rates := [2]float64{mmppQuietFactor / float64(mean), mmppBurstFactor / float64(mean)}
	sojourn := float64(mmppSojournReqs) * float64(mean)
	out := make([]time.Duration, 0, n)
	now := 0.0
	state := rng.Intn(2)
	stateEnd := now + rng.ExpFloat64()*sojourn
	for len(out) < n {
		gap := rng.ExpFloat64() / rates[state]
		if now+gap > stateEnd {
			// No arrival before the state switch: advance to the switch and
			// redraw in the new state (memorylessness makes this exact).
			now = stateEnd
			state = 1 - state
			stateEnd = now + rng.ExpFloat64()*sojourn
			continue
		}
		now += gap
		out = append(out, time.Duration(now))
	}
	return out
}

// burstIndex is the squared coefficient of variation of inter-arrival
// gaps: 1 for Poisson, larger for bursty processes.
func burstIndex(arrivals []time.Duration) float64 {
	if len(arrivals) < 2 {
		return 0
	}
	gaps := make([]float64, len(arrivals)-1)
	var mean float64
	for i := 1; i < len(arrivals); i++ {
		g := float64(arrivals[i] - arrivals[i-1])
		gaps[i-1] = g
		mean += g
	}
	mean /= float64(len(gaps))
	var varsum float64
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	varsum /= float64(len(gaps))
	if mean == 0 {
		return 0
	}
	return varsum / (mean * mean)
}

// AblationShardServe measures partition-parallel serving: QPS and latency
// percentiles versus shard count, under Poisson and MMPP arrivals at the
// same offered rate.
func AblationShardServe(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	res, err := train.SingleSocket(ds, train.SingleConfig{
		Model:  model.Config{Hidden: shardServeHidden, NumLayers: shardServeLayers, Seed: 1},
		Epochs: opt.epochs(3), LR: 0.02, UseAdam: true,
	})
	if err != nil {
		return err
	}
	var ckpt bytes.Buffer
	if err := nn.WriteParams(&ckpt, res.Model.Params()); err != nil {
		return err
	}

	workSet := make([]int32, min(shardServeWorkSet, ds.G.NumVertices))
	step := max(1, ds.G.NumVertices/len(workSet))
	for i := range workSet {
		workSet[i] = int32((i * step) % ds.G.NumVertices)
	}

	// Calibrate the offered rate against a single shard: a short closed
	// loop estimates the mean service time, and the open-loop arms offer
	// ~90% of that single-engine capacity — enough for queues to form at 1
	// shard and drain at 4.
	meanSvc, err := calibrateShardService(ds, ckpt.Bytes(), workSet)
	if err != nil {
		return err
	}
	meanGap := time.Duration(float64(meanSvc) / 0.9)
	offered := float64(time.Second) / float64(meanGap)

	report := ShardServeReport{Experiment: "abl-shardserve", Scale: opt.scale()}
	t := &table{header: []string{"shards", "arrivals", "offered QPS", "burst CV²", "QPS", "p50", "p95", "p99", "halo hit", "routed"}}
	for _, shards := range []int{1, 2, 4} {
		for _, arrivals := range []string{"poisson", "mmpp"} {
			rng := rand.New(rand.NewSource(int64(100*shards + len(arrivals))))
			var sched []time.Duration
			if arrivals == "poisson" {
				sched = poissonArrivals(rng, shardServeRequests, meanGap)
			} else {
				sched = mmppArrivals(rng, shardServeRequests, meanGap)
			}
			row, err := runShardArm(ds, ckpt.Bytes(), shards, workSet, sched, rng)
			if err != nil {
				return err
			}
			row.Arrivals = arrivals
			row.OfferedQPS = offered
			row.BurstIndex = burstIndex(sched)
			report.Results = append(report.Results, row)
			t.add(fmt.Sprint(shards), arrivals, fmt.Sprintf("%.0f", offered),
				f2(row.BurstIndex), fmt.Sprintf("%.0f", row.QPS),
				fmt.Sprintf("%.2fms", row.P50MS), fmt.Sprintf("%.2fms", row.P95MS),
				fmt.Sprintf("%.2fms", row.P99MS), pct(row.HaloHitRate), pct(row.RoutedFrac))
		}
	}
	t.write(opt.Out)

	lookup := func(shards int, arrivals string) *ShardServeRow {
		for i := range report.Results {
			r := &report.Results[i]
			if r.Shards == shards && r.Arrivals == arrivals {
				return r
			}
		}
		return nil
	}
	if po, mm := lookup(2, "poisson"), lookup(2, "mmpp"); po != nil && mm != nil && po.P95MS > 0 {
		report.MMPPOverPoissonP95S2 = mm.P95MS / po.P95MS
	}
	if s1, s4 := lookup(1, "poisson"), lookup(4, "poisson"); s1 != nil && s4 != nil && s1.P95MS > 0 {
		report.P95RatioS4OverS1Poisson = s4.P95MS / s1.P95MS
	}
	fmt.Fprintf(opt.Out, "\nMMPP/Poisson p95 @2 shards: %.2f (bursts inflate the tail)   "+
		"4-shard/1-shard p95 (Poisson): %.2f (<1 with cores per shard; ≈1+halo overhead on one shared-core box)\n",
		report.MMPPOverPoissonP95S2, report.P95RatioS4OverS1Poisson)

	if opt.JSON != nil {
		enc := json.NewEncoder(opt.JSON)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	return nil
}

// calibrateShardService runs a short closed loop against one shard and
// returns the mean request latency.
func calibrateShardService(ds *datasets.Dataset, ckpt []byte, workSet []int32) (time.Duration, error) {
	fleet, err := startShardFleet(ds, ckpt, 1)
	if err != nil {
		return 0, err
	}
	defer fleet.close()
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	for i := 0; i < shardServeCalib; i++ {
		if err := shardQuery(client, fleet.addrs[0], workSet[i%len(workSet)]); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / shardServeCalib, nil
}

// shardTotals are fleet-wide counter sums, used to diff the measurement
// window from the warmup.
type shardTotals struct {
	haloHits, haloMisses, routed, predicts int64
}

func fleetShardTotals(f *benchShardFleet) shardTotals {
	var t shardTotals
	for _, srv := range f.servers {
		st := srv.StatsSnapshot()
		t.haloHits += st.Shard.HaloHits
		t.haloMisses += st.Shard.HaloMisses
		t.routed += st.Shard.RoutedOut
		t.predicts += st.Predicts
	}
	return t
}

func shardQuery(client *http.Client, addr string, v int32) error {
	resp, err := client.Get(fmt.Sprintf("http://%s/predict?vertex=%d", addr, v))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("abl-shardserve: /predict status %d", resp.StatusCode)
	}
	return nil
}

// runShardArm replays one arrival schedule against a fresh fleet, entry
// rank round-robin, and measures latency from each request's scheduled
// arrival time (queueing delay included — no coordinated omission).
func runShardArm(ds *datasets.Dataset, ckpt []byte, shards int,
	workSet []int32, sched []time.Duration, rng *rand.Rand) (ShardServeRow, error) {
	fleet, err := startShardFleet(ds, ckpt, shards)
	if err != nil {
		return ShardServeRow{}, err
	}
	defer fleet.close()
	client := &http.Client{Timeout: 60 * time.Second}

	// Warm the fleet (connection setup, first partition-spanning gathers)
	// outside the measurement window, then baseline the counters so the
	// reported hit/routed rates describe only the measured requests.
	for r := 0; r < shards; r++ {
		if err := shardQuery(client, fleet.addrs[r], workSet[0]); err != nil {
			return ShardServeRow{}, err
		}
	}
	base := fleetShardTotals(fleet)

	vertices := make([]int32, len(sched))
	for i := range vertices {
		vertices[i] = workSet[rng.Intn(len(workSet))]
	}
	lat := make([]time.Duration, len(sched))
	errs := make([]error, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrive := start.Add(sched[i])
			time.Sleep(time.Until(arrive))
			if err := shardQuery(client, fleet.addrs[i%shards], vertices[i]); err != nil {
				errs[i] = err
				return
			}
			lat[i] = time.Since(arrive)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ShardServeRow{}, err
		}
	}

	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	tot := fleetShardTotals(fleet)
	haloHits := tot.haloHits - base.haloHits
	haloMisses := tot.haloMisses - base.haloMisses
	routed := tot.routed - base.routed
	predicts := tot.predicts - base.predicts
	row := ShardServeRow{
		Shards:   shards,
		Requests: len(sorted),
		QPS:      float64(len(sorted)) / elapsed.Seconds(),
		P50MS:    percentileMS(sorted, 0.50),
		P95MS:    percentileMS(sorted, 0.95),
		P99MS:    percentileMS(sorted, 0.99),
	}
	if haloHits+haloMisses > 0 {
		row.HaloHitRate = float64(haloHits) / float64(haloHits+haloMisses)
	}
	if predicts > 0 {
		row.RoutedFrac = float64(routed) / float64(predicts)
	}
	return row, nil
}
