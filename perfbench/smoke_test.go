package main

import (
	"testing"
	"time"
)

// Tiny versions of the four workloads: same code paths and checks, inputs
// small enough for a test.
var (
	fbRedditTiny = fbRedditConfig{Scale: 0.05, Hidden: 16, Layers: 3, Epochs: 4, LossTarget: 100}
	fbDistTiny   = fbDistConfig{
		Dataset: "ogbn-products-sim", Scale: 0.05, Ranks: 2, Delay: 1, Hidden: 16, Layers: 3,
		ShortEpochs: 3, LongEpochs: 9,
	}
	serveReadTiny = serveConfig{
		Scale: 0.05, Hidden: 16, Layers: 2, FixtureEpochs: 2, SetupReps: 2,
		MaxBatch: 16, MaxWait: time.Millisecond, FeatureCacheBytes: 1 << 20, EmbedCacheShare: 0.5,
		Readers: 2, ReadRate: 300, Zipf: 0.8, CheckEvery: 7, ReplayRequests: 50,
	}
	serveRWTiny = serveConfig{
		Scale: 0.05, Hidden: 16, Layers: 2, FixtureEpochs: 2, SetupReps: 2,
		MaxBatch: 16, MaxWait: time.Millisecond, FeatureCacheBytes: 1 << 20, EmbedCacheBytes: 1 << 20,
		Readers: 1, ReadRate: 200, CheckEvery: 7, ReplayRequests: 50,
		Updates: true, CompactEdges: 64,
	}
)

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	o := options{seed: 3, seconds: 1, trace: true}
	cases := []struct {
		name string
		run  func() *report
		// layers that must have done work in the traced run
		layers []string
	}{
		{"fb-reddit", func() *report { return runFBReddit(fbRedditTiny, o) },
			[]string{"epoch_s", "model.forward_ms", "spmm.agg_ms", "tensor.mlp_ms", "spmm.bytes_per_epoch_computed", "trace_overhead"}},
		{"fb-dist", func() *report { return runFBDist(fbDistTiny, o) },
			[]string{"epoch_s", "partition.replication", "comm.bytes_per_epoch", "train.sim_lat_ms", "trace_overhead"}},
		{"serve-read", func() *report { return runServeRead(serveReadTiny, o) },
			[]string{"qps", "serve.stage.forward_ms", "serve.engine_infer_ms", "minibatch.frontier_mean", "serve.embed_cache.hit_ratio", "trace_overhead"}},
		{"serve-rw", func() *report { return runServeRW(serveRWTiny, o) },
			[]string{"qps", "update_p50_ms", "serve.update_scv", "graph.insert_ms", "graph.compactions", "trace_overhead"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := c.run()
			e2e := r.result(false)
			layer := r.result(true)
			if !e2e.Correct || !layer.Correct {
				t.Fatalf("run not correct: %d of %d operations failed; problems: %v", r.failed, r.attempted, r.problems)
			}
			for _, d := range endToEnd {
				if v := e2e.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, v)
				}
			}
			for _, name := range c.layers {
				if v := layer.Metrics[name].Value; !(v > 0) {
					t.Errorf("per-layer %s = %v, want > 0", name, v)
				}
			}
		})
	}
}
