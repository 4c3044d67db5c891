package minibatch

import (
	"math"
	"sync"
	"testing"
	"time"

	"distgnn/internal/comm"
)

// shardedTestCfg is the shared hyperparameter set of the distributed-
// minibatch conformance harness. Small epochs keep the 4-rank × 2-fabric
// matrix fast; Adam exercises the stateful optimizer path.
func shardedTestCfg(ranks int) ShardedTrainConfig {
	return ShardedTrainConfig{
		DistConfig: DistConfig{
			Config: Config{
				Hidden: 16, NumLayers: 2, Fanouts: []int{10, 5},
				BatchSize: 64, Epochs: 2, LR: 0.05, UseAdam: true, Seed: 5,
			},
			NumRanks: ranks,
		},
		CacheBytes: 1 << 20,
	}
}

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

// TestTrainShardedConformance is the distributed-minibatch pin: with
// identical sampler seeds, the sharded trainer's final parameters are
// bit-identical to the replicated TrainDistributed reference across 1, 2,
// and 4 ranks on the in-process fabric — and its loss trace and test
// accuracy match exactly too.
func TestTrainShardedConformance(t *testing.T) {
	ds := testDS(t)
	for _, ranks := range []int{1, 2, 4} {
		cfg := shardedTestCfg(ranks)
		ref, err := TrainDistributed(ds, cfg.DistConfig)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TrainSharded(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := "ranks=" + string(rune('0'+ranks))
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
		if ranks > 1 {
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
// final params bit-identical to the in-process reference.
func TestTrainShardedTCPConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP conformance run in full mode only")
	}
	ds := testDS(t)
	for _, ranks := range []int{2, 4} {
		cfg := shardedTestCfg(ranks)
		ref, err := TrainDistributed(ds, cfg.DistConfig)
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
		}
		for _, tr := range trs {
			tr.Close()
		}
	}
}

func TestTrainShardedRejectsBadConfig(t *testing.T) {
	ds := testDS(t)
	bad := []ShardedTrainConfig{
		{DistConfig: DistConfig{Config: Config{NumLayers: 2, Fanouts: []int{5, 5}, BatchSize: 32, Epochs: 1, Seed: 1}, NumRanks: 0}},
		{DistConfig: DistConfig{Config: Config{NumLayers: 2, Fanouts: []int{5}, BatchSize: 32, Epochs: 1, Seed: 1}, NumRanks: 2}},
		{DistConfig: DistConfig{Config: Config{NumLayers: 1, Fanouts: []int{5}, BatchSize: 0, Epochs: 1, Seed: 1}, NumRanks: 2}},
	}
	for i, cfg := range bad {
		if _, err := TrainSharded(ds, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
