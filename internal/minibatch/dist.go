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
	"distgnn/internal/partition"
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
	// Transport selects the fabric. Nil runs all NumRanks ranks in this
	// process over a fresh in-process fabric. A single-rank endpoint (TCP)
	// runs rank Transport.Self() in this process; the caller launches one
	// process per rank. The transport stays owned by the caller.
	Transport comm.Transport
	// PartitionSeed seeds the deterministic partitioning every rank derives
	// identically (default 1, matching serve's shard mode).
	PartitionSeed int64
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
	// replicas are identical). The golden and conformance tests compare it
	// bit for bit across rank counts and transports.
	Params []float32
	// HaloStats is indexed by rank. Every rank's entry carries that rank's
	// fetch-side counters (HaloFetches, HaloFetchedVertices,
	// HaloFetchedBytes), gathered from all ranks on every fabric; the
	// reporting rank's own entry is its full featstore snapshot.
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
	if cfg.Transport != nil && cfg.Transport.Size() != cfg.NumRanks {
		return fmt.Errorf("minibatch: transport spans %d ranks, NumRanks is %d",
			cfg.Transport.Size(), cfg.NumRanks)
	}
	return nil
}

// TrainSharded runs data-parallel sampled mini-batch training with
// owner-sharded features. Every rank materializes only the feature rows of
// the vertices it owns (internal/partition's deterministic vertex-cut
// reduced to unique owners, exactly as the sharded serving engine does)
// and reads everything else through featstore.Sharded: one batched halo
// fetch per owner rank over the comm.ReqRep plane, issued for batch t+1
// while batch t computes. The ranks keep no halo cache: one changed no
// bit and made epochs slower, in process and over loopback TCP. A sharded
// gather returns the exact fp32 bits of the resident matrix (featstore's
// contract), so the final parameters depend on the rank count and seed
// only, not on the transport or the partitioning.
//
// It sizes the kernel pool from cfg.Workers, then runs every rank this
// process hosts: all NumRanks of a fresh in-process fabric when
// cfg.Transport is nil, else the endpoint's single rank. It returns rank
// 0's result (or the endpoint's own).
func TrainSharded(ds *datasets.Dataset, cfg DistConfig) (*DistResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PartitionSeed == 0 {
		cfg.PartitionSeed = 1
	}
	// Every rank derives the identical owner table: a pure function of the
	// dataset and seed.
	pt, err := partition.Partition(ds.G, partition.Libra{Seed: cfg.PartitionSeed}, cfg.NumRanks, cfg.PartitionSeed)
	if err != nil {
		return nil, fmt.Errorf("minibatch: shard partitioning: %w", err)
	}
	owners := pt.Owners()
	if cfg.Workers > 0 {
		parallel.Configure(parallel.Config{Workers: cfg.Workers})
	}

	run := func(world *comm.World) (*DistResult, error) {
		store, err := featstore.NewSharded(featstore.ShardedConfig{
			Transport: world.Transport(),
			Owners:    owners,
			Features:  ds.Features,
		})
		if err != nil {
			return nil, err
		}
		defer store.Close()
		return trainRank(ds, cfg, world, store)
	}
	if cfg.Transport != nil {
		return run(comm.NewWorldTransport(cfg.Transport))
	}
	results := make([]*DistResult, cfg.NumRanks)
	errs := make([]error, cfg.NumRanks)
	comm.RunInProcess(cfg.NumRanks, func(w *comm.World) { results[w.Self()], errs[w.Self()] = run(w) })
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("minibatch: rank %d: %w", r, err)
		}
	}
	return results[0], nil
}

// sampledBatch is one step's prefetched work: the sampled blocks and their
// gathered layer-0 input, one row per input-frontier vertex (nil Sample for
// an idle step on a rank that ran out of local batches).
type sampledBatch struct {
	seeds []int32
	s     *Sample
	rows  spmm.FeatRows
	err   error
}

// trainRank runs one rank of data-parallel sampled training, reading
// layer-0 features through the rank's store. Every rank derives the same
// training-vertex shards and builds the same model (seed cfg.Seed+100),
// samples with its own sampler (cfg.Seed+rank) and epoch shuffle
// (cfg.Seed+1000+rank), and AllReduces gradients in rank order every step,
// so the replicas stay identical.
func trainRank(ds *datasets.Dataset, cfg DistConfig, world *comm.World, store *featstore.Sharded) (*DistResult, error) {
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
					bw.rows, bw.err = gatherInput(store, bw.s)
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

	// Rank 0 evaluates (its peers keep serving halo fetches while blocked
	// in the broadcast) and shares the accuracy.
	var acc float64
	if rank == 0 {
		if acc, err = evaluate(ds, sampler, m, cfg.BatchSize, store); err != nil {
			return nil, err
		}
	}
	accBits := comm.AppendF64(nil, acc)
	world.Broadcast(0, accBits)
	res.TestAcc = comm.F64(accBits)

	// Every rank reports every rank's fetches: the fetch-side counters
	// travel as exact bit patterns, as the epoch stats do.
	own := store.Stats()
	var local []float32
	for _, c := range []int64{own.HaloFetches, own.HaloFetchedVertices, own.HaloFetchedBytes} {
		local = comm.AppendF64(local, math.Float64frombits(uint64(c)))
	}
	parts := world.AllGather(local)
	counter := func(w []float32) int64 { return int64(math.Float64bits(comm.F64(w))) }
	res.HaloStats = make([]featstore.ShardedStats, cfg.NumRanks)
	for r := range res.HaloStats {
		w := parts[6*r : 6*r+6]
		res.HaloStats[r] = featstore.ShardedStats{
			HaloFetches:         counter(w),
			HaloFetchedVertices: counter(w[2:]),
			HaloFetchedBytes:    counter(w[4:]),
		}
	}
	res.HaloStats[rank] = own
	return res, nil
}

// gatherInput materializes the sample's layer-0 input: the input
// frontier's feature rows, local ones from the rank's slab and the rest
// fetched from their owners.
func gatherInput(store *featstore.Sharded, s *Sample) (spmm.FeatRows, error) {
	x, err := store.Gather(s.InputFrontier(), nil)
	return spmm.RowsOf(x), err
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
		logits := SageForward(st.m, bw.s, bw.rows, nil, true)
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
