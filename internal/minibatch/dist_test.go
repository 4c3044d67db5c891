package minibatch

import (
	"math"
	"sync"
	"testing"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/parallel"
)

func paramsBitEqual(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: param vector length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: param %d differs: %v (bits %#x) != %v (bits %#x)",
				label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestTrainShardedConformance is the in-process distributed-minibatch pin:
// with another partition seed, the trainer's final parameters still carry
// the golden digests at 1, 2 and 4 ranks, and its loss trace, sampled work
// and test accuracy match the plain golden run exactly. Where features
// live changes no bit.
func TestTrainShardedConformance(t *testing.T) {
	ds := testDS(t)
	for _, c := range sampledGolden[:3] {
		ref, err := TrainSharded(ds, goldenCfg(c.ranks))
		if err != nil {
			t.Fatal(err)
		}
		cfg := goldenCfg(c.ranks)
		cfg.PartitionSeed = 7
		got, err := TrainSharded(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := "ranks=" + string(rune('0'+c.ranks))
		if d := bitsDigest(got.Params); d != c.params {
			t.Fatalf("%s: final params digest %s, want %s", label, d, c.params)
		}
		paramsBitEqual(t, label, got.Params, ref.Params)
		if got.TestAcc != ref.TestAcc {
			t.Fatalf("%s: test accuracy %v != reference %v", label, got.TestAcc, ref.TestAcc)
		}
		for e := range ref.Epochs {
			if got.Epochs[e].Loss != ref.Epochs[e].Loss {
				t.Fatalf("%s: epoch %d loss %v != reference %v", label, e, got.Epochs[e].Loss, ref.Epochs[e].Loss)
			}
			if got.Epochs[e].SampledWork != ref.Epochs[e].SampledWork {
				t.Fatalf("%s: epoch %d work %d != reference %d", label, e, got.Epochs[e].SampledWork, ref.Epochs[e].SampledWork)
			}
		}
		if c.ranks > 1 {
			var fetched int64
			for _, hs := range got.HaloStats {
				fetched += hs.HaloFetchedVertices
			}
			if fetched == 0 {
				t.Fatalf("%s: sharded run fetched no halo vertices — features were not actually sharded", label)
			}
		}
	}
}

// TestTrainShardedTCPConformance reruns the pin over real loopback TCP:
// each rank driven from its own goroutine on its own single-rank endpoint,
// final params and test accuracy bit-identical to the in-process run.
func TestTrainShardedTCPConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP conformance run in full mode only")
	}
	ds := testDS(t)
	for _, ranks := range []int{2, 4} {
		cfg := goldenCfg(ranks)
		ref, err := TrainSharded(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		trs, err := comm.NewLoopbackTCP(ranks, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*DistResult, ranks)
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rcfg := cfg
				rcfg.Transport = trs[r]
				results[r], errs[r] = TrainSharded(ds, rcfg)
			}()
		}
		wg.Wait()
		for r := 0; r < ranks; r++ {
			if errs[r] != nil {
				t.Fatalf("ranks=%d rank %d: %v", ranks, r, errs[r])
			}
		}
		for r := 0; r < ranks; r++ {
			label := "tcp ranks=" + string(rune('0'+ranks)) + " rank=" + string(rune('0'+r))
			paramsBitEqual(t, label, results[r].Params, ref.Params)
			if results[r].TestAcc != ref.TestAcc {
				t.Fatalf("%s: test accuracy %v != reference %v", label, results[r].TestAcc, ref.TestAcc)
			}
			// AllReduce is the fleet-wide max, so every rank reports the
			// same figure for every epoch.
			for e, st := range results[r].Epochs {
				if want := results[0].Epochs[e].AllReduce; st.AllReduce != want {
					t.Fatalf("%s: epoch %d AllReduce %v, rank 0 reports %v", label, e, st.AllReduce, want)
				}
			}
			// Every rank reports every rank's fetches, as the in-process
			// run does.
			for src, hs := range results[r].HaloStats {
				want := ref.HaloStats[src]
				if hs.HaloFetches != want.HaloFetches || hs.HaloFetchedVertices != want.HaloFetchedVertices ||
					hs.HaloFetchedBytes != want.HaloFetchedBytes {
					t.Fatalf("%s: rank %d's fetches %+v, in process %+v", label, src, hs, want)
				}
			}
		}
		for _, tr := range trs {
			tr.Close()
		}
	}
}

// TestTrainDistributedLearns is TestTrainLearns with the training
// distributed over 4 ranks, each owning a shard of the features and
// fetching halo rows from the others.
func TestTrainDistributedLearns(t *testing.T) {
	ds := testDS(t)
	res, err := TrainSharded(ds, DistConfig{
		Config: Config{
			Hidden: 16, Fanouts: []int{10, 5},
			BatchSize: 64, Epochs: 8, LR: 0.05, UseAdam: true, Seed: 5,
		},
		NumRanks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last >= first*0.8 {
		t.Fatalf("distributed mini-batch loss %v → %v did not improve", first, last)
	}
	if res.TestAcc < 0.5 {
		t.Fatalf("test accuracy %v < 0.5", res.TestAcc)
	}
	for _, e := range res.Epochs {
		if e.Steps <= 0 || e.SampledWork <= 0 || e.Time <= 0 {
			t.Fatalf("bad epoch stat %+v", e)
		}
	}
}

// TestTrainShardedAppliesWorkers pins the worker-pool knob: Config.Workers
// sizes the process-wide kernel pool for the run, as
// `distgnn-train -minibatch -workers N` promises.
func TestTrainShardedAppliesWorkers(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.Configure(parallel.Config{Workers: prev})
	want := 3
	if prev == want {
		want = 2
	}
	ds := testDS(t)
	if _, err := TrainSharded(ds, DistConfig{
		Config: Config{
			Hidden: 8, Fanouts: []int{5},
			BatchSize: 200, Epochs: 1, LR: 0.05, Seed: 1, Workers: want,
		},
		NumRanks: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if got := parallel.Workers(); got != want {
		t.Fatalf("Workers: %d left the pool at %d workers", want, got)
	}
}

func TestTrainShardedDeterministic(t *testing.T) {
	ds := testDS(t)
	run := func() *DistResult {
		res, err := TrainSharded(ds, DistConfig{
			Config: Config{
				Hidden: 8, Fanouts: []int{5, 5},
				BatchSize: 64, Epochs: 3, LR: 0.05, Seed: 9,
			},
			NumRanks: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for e := range a.Epochs {
		if a.Epochs[e].Loss != b.Epochs[e].Loss {
			t.Fatalf("epoch %d losses differ: %v vs %v", e, a.Epochs[e].Loss, b.Epochs[e].Loss)
		}
	}
	if a.TestAcc != b.TestAcc {
		t.Fatal("accuracies differ across runs")
	}
}

// TestTrainShardedUnevenShards sizes the batch so that at 7 ranks the
// larger training shards need a second step and the smaller ones do not:
// an idle rank must still join every collective and keep answering its
// peers' halo fetches, or the run deadlocks.
func TestTrainShardedUnevenShards(t *testing.T) {
	ds := testDS(t)
	const ranks = 7
	if len(ds.TrainIdx)%ranks == 0 {
		t.Fatalf("%d training vertices split evenly over %d ranks", len(ds.TrainIdx), ranks)
	}
	res, err := TrainSharded(ds, DistConfig{
		Config: Config{
			Hidden: 8, Fanouts: []int{5},
			BatchSize: len(ds.TrainIdx) / ranks, Epochs: 2, LR: 0.05, Seed: 1,
		},
		NumRanks: ranks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatal("missing epochs")
	}
	for _, e := range res.Epochs {
		if e.Steps != 2 {
			t.Fatalf("%d steps per epoch, want 2 (one idle step on the smaller shards)", e.Steps)
		}
	}
}

// TestTrainDistributedRejectsBadConfig: no ranks, or no batch on 2 ranks.
func TestTrainDistributedRejectsBadConfig(t *testing.T) {
	ds := testDS(t)
	bad := []DistConfig{
		{Config: Config{Hidden: 8, Fanouts: []int{5}, BatchSize: 10, Epochs: 1, LR: 0.1}, NumRanks: 0},
		{Config: Config{Hidden: 8, Fanouts: []int{5}, BatchSize: 0, Epochs: 1, LR: 0.1}, NumRanks: 2},
	}
	for i, cfg := range bad {
		if _, err := TrainSharded(ds, cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

// TestTrainShardedRejectsBadConfig: the same with default hidden width and
// learning rate, and a transport whose world size is not NumRanks.
func TestTrainShardedRejectsBadConfig(t *testing.T) {
	ds := testDS(t)
	bad := []DistConfig{
		{Config: Config{Fanouts: []int{5, 5}, BatchSize: 32, Epochs: 1, Seed: 1}, NumRanks: 0},
		{Config: Config{Fanouts: []int{5}, BatchSize: 0, Epochs: 1, Seed: 1}, NumRanks: 2},
		{Config: Config{Hidden: 8, Fanouts: []int{5}, BatchSize: 10, Epochs: 1, LR: 0.1}, NumRanks: 3,
			Transport: comm.NewProcFabric(2)[0]},
	}
	for i, cfg := range bad {
		if _, err := TrainSharded(ds, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
