package minibatch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/parallel"
	"distgnn/internal/spmm"
)

// DistConfig configures distributed mini-batch training — the paper's §7
// headline future-work item ("we expect to demonstrate highly scalable
// DistGNN for mini-batch training"), realized Dist-DGL style: training
// vertices are sharded across ranks, every rank samples its own
// mini-batches, and gradients are AllReduced per step so all model
// replicas stay identical.
type DistConfig struct {
	Config
	NumRanks int
}

// DistEpochStat is one distributed mini-batch epoch.
type DistEpochStat struct {
	Loss        float64
	Time        time.Duration
	SampledWork int64 // summed across ranks
	Steps       int   // synchronized optimizer steps
	// AllReduce is the wall time spent inside the per-step gradient
	// AllReduce this epoch, the max across ranks; every rank reports the
	// same value on every fabric. Pure timing — recording it never changes
	// a reduction's float order.
	AllReduce time.Duration
}

// DistResult is the outcome of a distributed mini-batch run.
type DistResult struct {
	Epochs  []DistEpochStat
	TestAcc float64
	// Params is the final flattened parameter vector (rank 0's replica; all
	// replicas are identical). The distributed-minibatch conformance harness
	// compares it bit for bit across rank counts, transports, and against
	// the replicated reference.
	Params []float32
	// HaloStats is the per-rank featstore fetch/cache snapshot, populated by
	// TrainSharded only (rank-indexed; a TCP endpoint fills only its own
	// rank's entry).
	HaloStats []featstore.ShardedStats
}

// AvgEpochTime averages epoch wall time over all epochs.
func (r *DistResult) AvgEpochTime() time.Duration {
	if len(r.Epochs) == 0 {
		return 0
	}
	var total time.Duration
	for _, e := range r.Epochs {
		total += e.Time
	}
	return total / time.Duration(len(r.Epochs))
}

func (cfg *DistConfig) validate() error {
	if cfg.NumRanks < 1 {
		return fmt.Errorf("minibatch: NumRanks must be ≥1, got %d", cfg.NumRanks)
	}
	if cfg.BatchSize < 1 || cfg.Epochs < 1 {
		return fmt.Errorf("minibatch: BatchSize and Epochs must be positive")
	}
	return nil
}

// featureSource yields a sampled batch's layer-0 input in
// model.AggregateGCN's form: feature rows, and the frontier that indexes
// them (nil when the rows are already block-local). It is one rank's only
// view of the features.
type featureSource func(s *Sample) (spmm.FeatRows, []int32, error)

// TrainDistributed runs data-parallel mini-batch training over NumRanks
// in-process ranks, every rank reading one shared resident feature matrix
// through the fused gather→aggregate kernel.
func TrainDistributed(ds *datasets.Dataset, cfg DistConfig) (*DistResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	feats := spmm.RowsOf(ds.Features)
	resident := func(s *Sample) (spmm.FeatRows, []int32, error) { return feats, s.InputFrontier(), nil }
	return runRanks(cfg, nil, func(world *comm.World) (*DistResult, error) {
		return trainRank(ds, cfg, world, resident)
	})
}

// runRanks sizes the kernel pool from cfg.Workers, then runs rank on every
// rank this process hosts: all NumRanks of a fresh in-process fabric when
// tr is nil, else the single rank of the endpoint tr. It returns rank 0's
// result (or the endpoint's own), with every in-process rank's HaloStats
// entry folded in.
func runRanks(cfg DistConfig, tr comm.Transport, rank func(world *comm.World) (*DistResult, error)) (*DistResult, error) {
	if cfg.Workers > 0 {
		parallel.Configure(parallel.Config{Workers: cfg.Workers})
	}
	if tr != nil {
		return rank(comm.NewWorldTransport(tr))
	}
	results := make([]*DistResult, cfg.NumRanks)
	errs := make([]error, cfg.NumRanks)
	comm.RunInProcess(cfg.NumRanks, func(w *comm.World) { results[w.Self()], errs[w.Self()] = rank(w) })
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("minibatch: rank %d: %w", r, err)
		}
	}
	res := results[0]
	if res.HaloStats != nil {
		for r := 1; r < cfg.NumRanks; r++ {
			res.HaloStats[r] = results[r].HaloStats[r]
		}
	}
	return res, nil
}

// sampledBatch is one step's prefetched work: the sampled blocks and their
// layer-0 input (nil Sample for an idle step on a rank that ran out of
// local batches).
type sampledBatch struct {
	seeds    []int32
	s        *Sample
	rows     spmm.FeatRows
	frontier []int32
	err      error
}

// trainRank runs one rank of data-parallel sampled training. Every rank
// derives the same training-vertex shards and builds the same model (seed
// cfg.Seed+100), samples with its own sampler (cfg.Seed+rank) and epoch
// shuffle (cfg.Seed+1000+rank), and AllReduces gradients in rank order
// every step, so the replicas stay identical and the result does not depend
// on where src reads features from: a sharded gather returns the resident
// matrix's exact bits, and model.AggregateGCN gives the same bits over a
// gathered matrix as over the store through the frontier.
func trainRank(ds *datasets.Dataset, cfg DistConfig, world *comm.World, src featureSource) (*DistResult, error) {
	rank := world.Self()
	shards := shardTrainIdx(ds.TrainIdx, cfg.Seed, cfg.NumRanks)
	// All ranks must execute the same number of synchronized steps per
	// epoch; ranks that run out of local batches contribute zero gradients.
	maxBatches := 0
	for _, shard := range shards {
		maxBatches = max(maxBatches, (len(shard)+cfg.BatchSize-1)/cfg.BatchSize)
	}
	if maxBatches == 0 {
		return nil, fmt.Errorf("minibatch: no training vertices")
	}

	m, err := model.New(nil, model.Config{
		InDim: ds.Features.Cols, Hidden: cfg.Hidden, OutDim: ds.NumClasses,
		NumLayers: len(cfg.Fanouts), Seed: cfg.Seed + 100,
	}, nil)
	if err != nil {
		return nil, err
	}
	sampler, err := NewSampler(ds.G, cfg.Fanouts, cfg.Seed+int64(rank))
	if err != nil {
		return nil, err
	}
	var opt nn.Optimizer
	if cfg.UseAdam {
		opt = nn.NewAdam(cfg.LR, 0)
	} else {
		opt = &nn.SGD{LR: cfg.LR}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(rank)))
	shard := shards[rank]
	params := m.Params()
	st := &rankStepper{m: m, params: params, opt: opt, world: world, labels: ds.Labels}

	res := &DistResult{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		rng.Shuffle(len(shard), func(i, j int) { shard[i], shard[j] = shard[j], shard[i] })

		// The producer samples batches in step order (the sampler's RNG
		// stream is consumed sequentially — Sampler is not safe for
		// concurrent use) and reads each batch's layer-0 input; the channel
		// holds one ready batch, so a halo fetch for step t+1 overlaps the
		// compute of step t.
		batches := make(chan sampledBatch, 1)
		go func() {
			defer close(batches)
			for step := 0; step < maxBatches; step++ {
				var bw sampledBatch
				if off := step * cfg.BatchSize; off < len(shard) {
					bw.seeds = shard[off:min(off+cfg.BatchSize, len(shard))]
					bw.s = sampler.Sample(bw.seeds)
					bw.rows, bw.frontier, bw.err = src(bw.s)
				}
				batches <- bw
				if bw.err != nil {
					return
				}
			}
		}()

		var localLoss float64
		var localWork int64
		var arTime time.Duration
		step := 0
		for bw := range batches {
			if bw.err != nil {
				return nil, bw.err
			}
			loss, ar := st.step(bw, globalBatchSize(shards, step, cfg.BatchSize))
			localLoss += loss
			arTime += ar
			if bw.s != nil {
				localWork += sampledWork(bw.s, ds.Features.Cols, cfg.Hidden)
			}
			step++
		}

		// Exchange every rank's loss part, sampled work and AllReduce time
		// as exact bit patterns; fold the loss in rank order so every rank
		// reports the same float64 sum.
		local := comm.AppendF64(nil, localLoss)
		local = comm.AppendF64(local, math.Float64frombits(uint64(localWork)))
		local = comm.AppendF64(local, math.Float64frombits(uint64(arTime)))
		parts := world.AllGather(local)
		st := DistEpochStat{Time: time.Since(start), Steps: maxBatches}
		var lsum float64
		for r := 0; r < cfg.NumRanks; r++ {
			w := parts[6*r : 6*r+6]
			lsum += comm.F64(w)
			st.SampledWork += int64(math.Float64bits(comm.F64(w[2:])))
			st.AllReduce = max(st.AllReduce, time.Duration(math.Float64bits(comm.F64(w[4:]))))
		}
		if len(ds.TrainIdx) > 0 {
			st.Loss = lsum / float64(len(ds.TrainIdx))
		}
		res.Epochs = append(res.Epochs, st)
	}
	res.Params = nn.FlattenParams(params, false)

	// Rank 0 evaluates (in a sharded run its peers keep serving halo fetches
	// while blocked in the broadcast) and shares the accuracy.
	var acc float64
	if rank == 0 {
		if acc, err = evaluate(ds, sampler, m, cfg.BatchSize, src); err != nil {
			return nil, err
		}
	}
	accBits := comm.AppendF64(nil, acc)
	world.Broadcast(0, accBits)
	res.TestAcc = comm.F64(accBits)
	return res, nil
}

// rankStepper is one rank's optimizer-step state: the model replica, its
// parameters and optimizer, and the world its gradients are AllReduced on.
type rankStepper struct {
	m      *model.GraphSAGE
	params []*nn.Param
	opt    nn.Optimizer
	world  *comm.World
	labels []int32 // global vertex labels
}

// step runs one synchronized optimizer step: forward, loss and backward
// over bw when this rank has a batch (an idle step contributes zero
// gradients), the gradient scaled to the rank's share of a global batch of
// global seeds, the rank-order AllReduce, then the optimizer step. It
// returns the batch's summed (not mean) loss and the AllReduce wall time.
func (st *rankStepper) step(bw sampledBatch, global int) (float64, time.Duration) {
	nn.ZeroGrads(st.params)
	var loss float64
	if bw.s != nil {
		logits := SageForward(st.m, bw.s, bw.rows, bw.frontier, true)
		localLabels := make([]int32, len(bw.seeds))
		mask := make([]int32, len(bw.seeds))
		for i, g := range bw.seeds {
			localLabels[i] = st.labels[g]
			mask[i] = int32(i)
		}
		mean, dlogits := nn.MaskedCrossEntropy(logits, localLabels, mask)
		st.m.BackwardBlocks(dlogits)
		loss = mean * float64(len(bw.seeds))
	}
	scale := float32(0)
	if global > 0 {
		scale = float32(len(bw.seeds)) / float32(global)
	}
	for _, p := range st.params {
		p.Grad.Scale(scale)
	}
	gbuf := nn.FlattenParams(st.params, true)
	arStart := time.Now()
	st.world.AllReduceSum(gbuf)
	arTime := time.Since(arStart)
	nn.UnflattenParams(st.params, gbuf, true)
	st.opt.Step(st.params)
	return loss, arTime
}

// shardTrainIdx shards training vertices round-robin after one seeded
// shuffle; every rank derives the same shards.
func shardTrainIdx(trainIdx []int32, seed int64, ranks int) [][]int32 {
	shuffled := append([]int32(nil), trainIdx...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	shards := make([][]int32, ranks)
	for i, v := range shuffled {
		shards[i%ranks] = append(shards[i%ranks], v)
	}
	return shards
}

// globalBatchSize sums the batch sizes all ranks process at a given step.
func globalBatchSize(shards [][]int32, step, batch int) int {
	total := 0
	for _, shard := range shards {
		off := step * batch
		if off < len(shard) {
			n := len(shard) - off
			if n > batch {
				n = batch
			}
			total += n
		}
	}
	return total
}
