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

	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/serve"
	"distgnn/internal/train"
)

// replicaserve.go is the abl-replicaserve ablation: replicated serving
// under failure. A 2-shard × 2-replica topology (two bit-identical
// in-process shard fleets behind the consistent-hash frontend) is driven
// with MMPP bursty arrivals — the traffic shape that actually forms queues
// (arXiv:1802.08400) — in three arms: all replicas alive, one whole
// replica fleet SIGKILL'd mid-run (the frontend must fail over with ZERO
// surfaced errors; its p99 under burst is the headline), and steady load
// across a mid-run fleet-wide /reload to a retrained checkpoint (zero
// non-200 responses — rollover drops nothing). Latency is measured from
// each request's scheduled arrival, so queueing and failover retries are
// charged to the tail, not hidden. Kill-arm latency is inherently noisy
// (it includes dial-failure detection), so this experiment reports but is
// deliberately NOT in the perf regression gate.

const (
	replicaServeShards   = 2
	replicaServeReplicas = 2
	replicaServeRequests = 240
	replicaServeWorkSet  = 160
)

// ReplicaServeRow is one arm's measurement.
type ReplicaServeRow struct {
	Arm        string  `json:"arm"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"` // non-200 responses surfaced to the client
	QPS        float64 `json:"qps"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	Retries    int64   `json:"retries"` // frontend failover attempts
	Shed       int64   `json:"shed"`    // 429s surfaced to the client
	Reloads    int64   `json:"reloads"`
	BurstIndex float64 `json:"burst_index"`
}

// ReplicaServeReport is the BENCH_replicaserve.json schema.
type ReplicaServeReport struct {
	Experiment string            `json:"experiment"`
	Scale      float64           `json:"scale"`
	Shards     int               `json:"shards"`
	Replicas   int               `json:"replicas"`
	Results    []ReplicaServeRow `json:"results"`
	// P99KilledMS is the headline: tail latency under MMPP bursts while a
	// whole replica fleet is dead.
	P99KilledMS float64 `json:"p99_killed_ms"`
	// KilledErrorRate must be 0: a killed replica degrades throughput,
	// never correctness.
	KilledErrorRate float64 `json:"killed_error_rate"`
	// ReloadNon200 must be 0: a mid-run fleet-wide checkpoint rollover
	// drops no requests.
	ReloadNon200 int `json:"reload_non_200"`
}

// replicaTopology is R bit-identical shard fleets behind a frontend with a
// real HTTP listener.
type replicaTopology struct {
	fleets   []*benchShardFleet
	frontend *serve.Frontend
	addr     string
	hs       *http.Server
}

func startReplicaTopology(ds *datasets.Dataset, ckpt []byte, shards, replicas int) (*replicaTopology, error) {
	topo := &replicaTopology{}
	groups := make([]serve.GroupSpec, shards)
	for g := range groups {
		groups[g].Key = fmt.Sprintf("group-%d", g)
	}
	for rep := 0; rep < replicas; rep++ {
		fleet, err := startReplicaShardFleet(ds, ckpt, shards)
		if err != nil {
			topo.close()
			return nil, err
		}
		topo.fleets = append(topo.fleets, fleet)
		for g := range groups {
			groups[g].Replicas = append(groups[g].Replicas, fleet.addrs[g])
		}
	}
	f, err := serve.NewFrontend(serve.FrontendConfig{
		Groups: groups, MaxFails: 2, ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		topo.close()
		return nil, err
	}
	topo.frontend = f
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		topo.close()
		return nil, err
	}
	topo.addr = ln.Addr().String()
	topo.hs = &http.Server{Handler: f.Handler()}
	go topo.hs.Serve(ln)
	return topo, nil
}

// kill hard-stops every rank of one replica fleet — the in-process stand-in
// for SIGKILLing its processes.
func (t *replicaTopology) kill(rep int) {
	for _, hs := range t.fleets[rep].https {
		hs.Close()
	}
}

func (t *replicaTopology) close() {
	if t.hs != nil {
		t.hs.Close()
	}
	if t.frontend != nil {
		t.frontend.Close()
	}
	for _, f := range t.fleets {
		f.close()
	}
}

// startReplicaShardFleet is startShardFleet with reload enabled — every
// replica must accept the fleet-wide /reload fan-out.
func startReplicaShardFleet(ds *datasets.Dataset, ckpt []byte, shards int) (*benchShardFleet, error) {
	return startShardFleetCfg(ds, ckpt, shards, func(c *serve.Config) { c.EnableReload = true })
}

// AblationReplicaServe measures replicated serving under failure: MMPP
// tail latency with all replicas alive vs one killed mid-run (zero
// surfaced errors required), and request survival across a mid-run
// fleet-wide checkpoint rollover.
func AblationReplicaServe(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	trainOnce := func(epochs int) ([]byte, error) {
		res, err := train.SingleSocket(ds, train.SingleConfig{
			Model:  model.Config{Hidden: shardServeHidden, NumLayers: shardServeLayers, Seed: 1},
			Epochs: epochs, LR: 0.02, UseAdam: true,
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
	ckpt, err := trainOnce(opt.epochs(3))
	if err != nil {
		return err
	}
	// The rollover fixture: same shapes, one more epoch of training.
	ckptB, err := trainOnce(opt.epochs(3) + 1)
	if err != nil {
		return err
	}

	workSet := make([]int32, min(replicaServeWorkSet, ds.G.NumVertices))
	step := max(1, ds.G.NumVertices/len(workSet))
	for i := range workSet {
		workSet[i] = int32((i * step) % ds.G.NumVertices)
	}
	meanSvc, err := calibrateShardService(ds, ckpt, workSet)
	if err != nil {
		return err
	}
	meanGap := time.Duration(float64(meanSvc) / 0.9)

	report := ReplicaServeReport{
		Experiment: "abl-replicaserve", Scale: opt.scale(),
		Shards: replicaServeShards, Replicas: replicaServeReplicas,
	}
	t := &table{header: []string{"arm", "requests", "errors", "QPS", "p50", "p95", "p99", "retries"}}
	arms := []struct {
		name     string
		arrivals string
		kill     bool
		reload   bool
	}{
		{"mmpp/all-alive", "mmpp", false, false},
		{"mmpp/replica-killed", "mmpp", true, false},
		{"steady/mid-reload", "poisson", false, true},
	}
	for _, arm := range arms {
		rng := rand.New(rand.NewSource(int64(len(arm.name))))
		var sched []time.Duration
		if arm.arrivals == "mmpp" {
			sched = mmppArrivals(rng, replicaServeRequests, meanGap)
		} else {
			sched = poissonArrivals(rng, replicaServeRequests, meanGap)
		}
		row, err := runReplicaArm(ds, ckpt, ckptB, workSet, sched, rng, arm.kill, arm.reload)
		if err != nil {
			return err
		}
		row.Arm = arm.name
		row.BurstIndex = burstIndex(sched)
		report.Results = append(report.Results, row)
		t.add(arm.name, fmt.Sprint(row.Requests), fmt.Sprint(row.Errors),
			fmt.Sprintf("%.0f", row.QPS), fmt.Sprintf("%.2fms", row.P50MS),
			fmt.Sprintf("%.2fms", row.P95MS), fmt.Sprintf("%.2fms", row.P99MS),
			fmt.Sprint(row.Retries))
		switch arm.name {
		case "mmpp/replica-killed":
			report.P99KilledMS = row.P99MS
			report.KilledErrorRate = float64(row.Errors) / float64(row.Requests)
		case "steady/mid-reload":
			report.ReloadNon200 = row.Errors
			if row.Reloads != 1 {
				return fmt.Errorf("abl-replicaserve: mid-run reload did not complete (reloads=%d)", row.Reloads)
			}
		}
	}
	t.write(opt.Out)
	fmt.Fprintf(opt.Out, "\np99 under MMPP burst with a replica killed mid-run: %.2fms at %.2f%% error rate "+
		"(must be 0%%)   mid-run /reload non-200s: %d (must be 0)\n",
		report.P99KilledMS, 100*report.KilledErrorRate, report.ReloadNon200)
	if report.KilledErrorRate > 0 {
		return fmt.Errorf("abl-replicaserve: killed-replica arm surfaced %.2f%% errors — failover is broken",
			100*report.KilledErrorRate)
	}
	if report.ReloadNon200 > 0 {
		return fmt.Errorf("abl-replicaserve: mid-run reload dropped %d requests", report.ReloadNon200)
	}

	if opt.JSON != nil {
		enc := json.NewEncoder(opt.JSON)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	return nil
}

// runReplicaArm replays one arrival schedule against a fresh 2×2 topology
// through the frontend. With kill set, replica fleet 0 is hard-stopped
// when ~40% of the schedule has elapsed; with reload set, a fleet-wide
// /reload to ckptB fires at the same point. Latency is measured from
// scheduled arrival (no coordinated omission), and every response status
// counts — a failover or rollover that drops requests shows up as Errors.
func runReplicaArm(ds *datasets.Dataset, ckpt, ckptB []byte, workSet []int32,
	sched []time.Duration, rng *rand.Rand, kill, reload bool) (ReplicaServeRow, error) {
	topo, err := startReplicaTopology(ds, ckpt, replicaServeShards, replicaServeReplicas)
	if err != nil {
		return ReplicaServeRow{}, err
	}
	defer topo.close()
	client := &http.Client{Timeout: 60 * time.Second}

	// Warmup outside the measurement window: one request per shard group
	// lands connections and the first partition-spanning gathers.
	for i := 0; i < replicaServeShards*replicaServeReplicas; i++ {
		if err := shardQuery(client, topo.addr, workSet[i%len(workSet)]); err != nil {
			return ReplicaServeRow{}, err
		}
	}

	vertices := make([]int32, len(sched))
	for i := range vertices {
		vertices[i] = workSet[rng.Intn(len(workSet))]
	}
	midpoint := sched[len(sched)*2/5]
	var reloadErr error
	var reloadDone sync.WaitGroup
	lat := make([]time.Duration, len(sched))
	errCount := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	if kill {
		time.AfterFunc(midpoint, func() { topo.kill(0) })
	}
	if reload {
		reloadDone.Add(1)
		time.AfterFunc(midpoint, func() {
			defer reloadDone.Done()
			resp, err := client.Post(fmt.Sprintf("http://%s/reload", topo.addr),
				"application/octet-stream", bytes.NewReader(ckptB))
			if err != nil {
				reloadErr = err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				reloadErr = fmt.Errorf("mid-run /reload status %d", resp.StatusCode)
			}
		})
	}
	for i := range sched {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrive := start.Add(sched[i])
			time.Sleep(time.Until(arrive))
			err := shardQuery(client, topo.addr, vertices[i])
			mu.Lock()
			if err != nil {
				errCount++
			} else {
				lat[i] = time.Since(arrive)
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if reload {
		reloadDone.Wait()
		if reloadErr != nil {
			return ReplicaServeRow{}, reloadErr
		}
	}

	var sorted []time.Duration
	for _, l := range lat {
		if l > 0 {
			sorted = append(sorted, l)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	st := topo.frontend.StatsSnapshot()
	row := ReplicaServeRow{
		Requests: len(sched),
		Errors:   errCount,
		QPS:      float64(len(sched)-errCount) / elapsed.Seconds(),
		P50MS:    percentileMS(sorted, 0.50),
		P95MS:    percentileMS(sorted, 0.95),
		P99MS:    percentileMS(sorted, 0.99),
		Retries:  st.Retries,
		Shed:     st.Shed,
		Reloads:  st.Reloads,
	}
	return row, nil
}
