package minibatch

import (
	"testing"

	"distgnn/internal/parallel"
)

func TestTrainDistributedLearns(t *testing.T) {
	ds := testDS(t)
	res, err := TrainDistributed(ds, DistConfig{
		Config: Config{
			Hidden: 16, NumLayers: 2, Fanouts: []int{10, 5},
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
		if e.Steps <= 0 || e.SampledWork <= 0 {
			t.Fatalf("bad epoch stat %+v", e)
		}
	}
}

// TestTrainDistributedAppliesWorkers pins the worker-pool knob on the
// distributed trainers: Config.Workers sizes the process-wide kernel pool
// for the run, as `distgnn-train -minibatch -workers N` promises.
func TestTrainDistributedAppliesWorkers(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.Configure(parallel.Config{Workers: prev})
	want := 3
	if prev == want {
		want = 2
	}
	ds := testDS(t)
	if _, err := TrainDistributed(ds, DistConfig{
		Config: Config{
			Hidden: 8, NumLayers: 1, Fanouts: []int{5},
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

func TestTrainDistributedDeterministic(t *testing.T) {
	ds := testDS(t)
	run := func() *DistResult {
		res, err := TrainDistributed(ds, DistConfig{
			Config: Config{
				Hidden: 8, NumLayers: 2, Fanouts: []int{5, 5},
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

func TestTrainDistributedUnevenShards(t *testing.T) {
	// Train-set size not divisible by ranks×batch: idle ranks must still
	// participate in collectives (no deadlock) and training must finish.
	ds := testDS(t)
	res, err := TrainDistributed(ds, DistConfig{
		Config: Config{
			Hidden: 8, NumLayers: 1, Fanouts: []int{5},
			BatchSize: 200, Epochs: 2, LR: 0.05, Seed: 1,
		},
		NumRanks: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatal("missing epochs")
	}
}

func TestTrainDistributedRejectsBadConfig(t *testing.T) {
	ds := testDS(t)
	bad := []DistConfig{
		{Config: Config{Hidden: 8, NumLayers: 1, Fanouts: []int{5}, BatchSize: 10, Epochs: 1, LR: 0.1}, NumRanks: 0},
		{Config: Config{Hidden: 8, NumLayers: 2, Fanouts: []int{5}, BatchSize: 10, Epochs: 1, LR: 0.1}, NumRanks: 2},
		{Config: Config{Hidden: 8, NumLayers: 1, Fanouts: []int{5}, BatchSize: 0, Epochs: 1, LR: 0.1}, NumRanks: 2},
	}
	for i, cfg := range bad {
		if _, err := TrainDistributed(ds, cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}
