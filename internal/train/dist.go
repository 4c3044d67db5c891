package train

import (
	"fmt"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/parallel"
	"distgnn/internal/partition"
	"distgnn/internal/quant"
	"distgnn/internal/tensor"
)

// Algorithm selects one of the distributed aggregation strategies of §5.3
// of the paper.
type Algorithm string

const (
	// Algo0C performs only local aggregation — no communication. Fastest;
	// the scaling roofline.
	Algo0C Algorithm = "0c"
	// AlgoCD0 synchronously exchanges partial aggregates of split vertices
	// every layer, giving every vertex its complete neighborhood.
	AlgoCD0 Algorithm = "cd-0"
	// AlgoCDR delays partial-aggregate exchange by Delay epochs and spreads
	// it over Delay bins of split vertices (DRPA, Alg. 4): each bin's leaf
	// partials are sent per layer as the forward pass produces them, and
	// roots send totals back at the epoch end. Its network term is charged
	// in full, as if every message blocked — smaller than cd-0's (1/Delay
	// of the volume per epoch) but still on the critical path.
	AlgoCDR Algorithm = "cd-r"
	// AlgoCDRS runs cd-r's exchange, the same code and the same bits, but
	// charges only the part of the α+bytes/β network term that compute
	// failed to hide — the paper's full DRPA with communication overlapped
	// behind compute (§6.3).
	AlgoCDRS Algorithm = "cd-rs"
)

// DistConfig configures a distributed full-batch training run.
type DistConfig struct {
	Model         model.Config
	NumPartitions int
	Algo          Algorithm
	// Delay is r of cd-r: partial aggregates sent in epoch e are consumed
	// in epoch e+r. The paper uses r=5 throughout. Ignored otherwise.
	Delay       int
	Epochs      int
	LR          float64
	WeightDecay float64
	UseAdam     bool
	// Partitioner defaults to Libra.
	Partitioner partition.Partitioner
	Seed        int64
	// Compute and Net translate the executed work and traffic into
	// simulated per-socket wall clock (Fig. 5/6); zero values get defaults.
	Compute comm.ComputeModel
	Net     comm.CostModel
	// CommPrecision selects the wire format for partial-aggregate
	// exchanges (the §7 future-work extension): FP32 (default), BF16 or
	// FP16. Low-precision formats halve the network volume; values are
	// rounded through the format so the accuracy impact is real. For
	// cd-r/cd-rs the pack/unpack runs inside the nonblocking request path,
	// off the compute-critical path.
	CommPrecision quant.Precision
	// Workers sizes the process-wide kernel worker pool shared by all
	// simulated ranks — the OMP_NUM_THREADS knob. 0 keeps the current pool.
	Workers int
	// Transport selects the comm fabric. Nil (the default) runs every rank
	// as a goroutine in this process, each over its own endpoint of an
	// in-process fabric (DistributedFleet over comm.NewProcFabric). A
	// single-rank endpoint (e.g. comm.TCPTransport) turns this process into
	// exactly one rank of a true multi-process run. Both run the same rank
	// loop and collectives, so parameters, losses and simulated timings are
	// bit-identical across fabrics. Every process must pass identical
	// DistConfig and dataset; Size() must equal NumPartitions.
	Transport comm.Transport
}

// DistEpochStat is one epoch of simulated-cluster timing plus the training
// loss. Times are seconds on the modeled cluster: LAT/RAT split per §6.3
// (LAT = forward local aggregation; RAT = remote aggregation including
// pre/post processing plus the exposed network time — the full term for
// the blocking cd-0/cd-r exchanges, only the un-hidden remainder for
// cd-rs). RAT counts every exchange an epoch runs: cd-0's backward
// gradient exchange lands in it through the same gather, byte and message
// counters as its forward one.
type DistEpochStat struct {
	Loss      float64
	LAT       float64 // forward local aggregation, max across ranks
	RAT       float64 // remote aggregation, every exchange of the epoch, max across ranks
	BwdAgg    float64 // backward aggregation
	MLP       float64 // dense layers fwd+bwd
	ParamSync float64
	Epoch     float64 // total simulated epoch time
	// ExposedNet is the part of cd-rs's overlapped network traffic that
	// compute failed to hide (max across ranks, already included in RAT).
	// Zero for the blocking algorithms, whose full network term is exposed.
	ExposedNet float64
}

// DistResult is the outcome of one distributed training run.
type DistResult struct {
	Epochs      []DistEpochStat
	TrainAcc    float64
	TestAcc     float64
	Replication float64
	EdgeBalance float64
	// Params is the final flattened parameter vector (rank 0's replica;
	// all replicas are identical).
	Params []float32
}

// AvgEpochSeconds averages simulated epoch time over epochs [lo, hi),
// clamped — the paper averages epochs 1–10 for 0c/cd-0 and 10–20 for cd-r.
func (r *DistResult) AvgEpochSeconds(lo, hi int) float64 {
	if hi > len(r.Epochs) {
		hi = len(r.Epochs)
	}
	if lo >= hi {
		return 0
	}
	var s float64
	for _, e := range r.Epochs[lo:hi] {
		s += e.Epoch
	}
	return s / float64(hi-lo)
}

// AvgLATRAT averages the local/remote aggregation split (forward LAT, RAT
// of every exchange) over the same window (Fig. 6).
func (r *DistResult) AvgLATRAT(lo, hi int) (lat, rat float64) {
	if hi > len(r.Epochs) {
		hi = len(r.Epochs)
	}
	if lo >= hi {
		return 0, 0
	}
	for _, e := range r.Epochs[lo:hi] {
		lat += e.LAT
		rat += e.RAT
	}
	n := float64(hi - lo)
	return lat / n, rat / n
}

// gradScratch recycles the flattened-gradient buffers used for the
// per-epoch parameter AllReduce — one full model's worth per rank per epoch
// before this arena existed.
var gradScratch parallel.Scratch[float32]

// rankCtx is one rank of a distributed run: its partition, model replica,
// optimizer, exchange state and communicator. Every rank runs the same
// epoch loop over its own fabric endpoint — in-process and over TCP alike.
type rankCtx struct {
	id     int
	world  *comm.World
	cfg    *DistConfig
	part   *partition.Part
	plan   *xplan
	model  *model.GraphSAGE
	x      *tensor.Matrix
	labels []int32
	// owned* hold local IDs of vertices this rank owns (root clone or only
	// clone) — each global vertex is owned exactly once across ranks.
	ownedTrain []int32
	ownedTest  []int32
	// global train/test set sizes: the denominators of the loss and
	// accuracy reductions.
	globalTrain, globalTest int

	// aggregate widths per layer (input dim of each SAGE layer).
	aggDims []int

	// cd-r / cd-rs state.
	captures  []*tensor.Matrix // fresh local aggregates per layer (split rows only)
	remoteAdd []*tensor.Matrix // stale leaf-partial sums (root rows)
	staleTot  []*tensor.Matrix // stale totals from roots (leaf rows)
	staleMask []bool           // rows of staleTot that are valid
	// packBuf stages every outgoing partial and total; both fabrics copy
	// a payload on Send, so one buffer serves every message.
	packBuf []float32
	// phase-A partials waiting out their delay, keyed by due epoch.
	pendingPartials map[int][]delivery

	// nonblocking state (overlap.go).
	pendingAReqs   []pendReq        // phase-A receives in flight this epoch
	pendingTotReqs map[int][]totReq // phase-B receives keyed by due epoch

	// per-epoch communication counters.
	gatherBytes int64
	netBytes    int64
	netMsgs     int64
	exposedNet  float64 // un-hidden network seconds this epoch (charged by cd-rs)
	// overlap is this rank's replayed cd-rs epochs (timing.go); nil for
	// the other algorithms.
	overlap []wireEpoch

	opt nn.Optimizer
}

// delivery is one layer's received leaf partials waiting out their delay.
type delivery struct {
	peer, bin, layer int
	data             []float32
}

// distSetup is everything every rank derives identically from the dataset
// and config: the validated config, the partitioning, the exchange plans,
// vertex ownership and the global normalization. A fleet in one process
// builds it once and shares it read-only; separate processes each derive
// the same one, which is what keeps their replicas in lockstep.
type distSetup struct {
	ds      *datasets.Dataset
	cfg     DistConfig
	pt      *partition.Partitioning
	plans   []*xplan
	owner   []int32   // owning rank of each global vertex
	norm    []float32 // GCN normalization by global in-degree
	aggDims []int
	// overlap is cd-rs's replayed exchange, [rank][epoch] (timing.go).
	overlap [][]wireEpoch
}

// newDistSetup validates and defaults cfg and partitions the graph.
func newDistSetup(ds *datasets.Dataset, cfg DistConfig) (*distSetup, error) {
	if cfg.NumPartitions < 1 {
		return nil, fmt.Errorf("train: NumPartitions must be ≥1, got %d", cfg.NumPartitions)
	}
	if cfg.Workers > 0 {
		parallel.Configure(parallel.Config{Workers: cfg.Workers})
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: Epochs must be positive")
	}
	switch cfg.Algo {
	case Algo0C, AlgoCD0:
	case AlgoCDR, AlgoCDRS:
		if cfg.Delay < 1 {
			return nil, fmt.Errorf("train: %s requires Delay ≥ 1, got %d", cfg.Algo, cfg.Delay)
		}
	default:
		return nil, fmt.Errorf("train: unknown algorithm %q", cfg.Algo)
	}
	if cfg.Algo != Algo0C && cfg.NumPartitions > 1 && cfg.Model.Aggregator == model.AggMaxPool {
		// Max-pool's forward calls no hook, so split vertices would
		// silently aggregate locally, as 0c does.
		return nil, fmt.Errorf("train: %s cannot exchange %s partial aggregates", cfg.Algo, model.AggMaxPool)
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = partition.Libra{Seed: cfg.Seed}
	}
	if cfg.Compute == (comm.ComputeModel{}) {
		cfg.Compute = comm.DefaultComputeModel()
	}
	if cfg.Net == (comm.CostModel{}) {
		cfg.Net = comm.DefaultCostModel()
	}
	mc := cfg.Model
	if mc.InDim == 0 {
		mc.InDim = ds.Features.Cols
	}
	if mc.OutDim == 0 {
		mc.OutDim = ds.NumClasses
	}
	if mc.NumLayers == 0 {
		mc.NumLayers = 3
	}
	if mc.Hidden == 0 {
		mc.Hidden = 256
	}
	// Dropout masks cannot be kept coherent across clones; distributed
	// training runs without dropout (the paper's GCN-aggregator GraphSAGE
	// configuration likewise).
	mc.DropoutP = 0
	cfg.Model = mc

	pt, err := partition.Partition(ds.G, cfg.Partitioner, cfg.NumPartitions, cfg.Seed)
	if err != nil {
		return nil, err
	}
	bins := 1
	if cfg.Algo == AlgoCDR || cfg.Algo == AlgoCDRS {
		bins = cfg.Delay
	}

	// Aggregate input widths per layer.
	aggDims := make([]int, mc.NumLayers)
	for l := range aggDims {
		if l == 0 {
			aggDims[l] = mc.InDim
		} else {
			aggDims[l] = mc.Hidden
		}
	}
	su := &distSetup{
		ds: ds, cfg: cfg, pt: pt, plans: buildXPlans(pt, bins), owner: pt.Owners(),
		norm: model.NormFromDegrees(ds.G.InDegrees()), aggDims: aggDims,
	}
	if cfg.Algo == AlgoCDRS {
		su.overlap = su.replayOverlap()
	}
	return su, nil
}

// newRank builds the rank w hosts: its local dataset slice, model replica,
// optimizer and cd-r buffers. All replicas share one model seed so initial
// weights are identical, and the gradient AllReduce keeps them identical.
func (su *distSetup) newRank(w *comm.World) (*rankCtx, error) {
	cfg := &su.cfg
	if w.N != cfg.NumPartitions {
		return nil, fmt.Errorf("train: transport world size %d != NumPartitions %d", w.N, cfg.NumPartitions)
	}
	p := w.Self()
	part := su.pt.Parts[p]
	nLocal := part.NumLocal()

	// Local feature/label slices.
	x := tensor.New(nLocal, su.ds.Features.Cols)
	labels := make([]int32, nLocal)
	norm := make([]float32, nLocal)
	for local, g := range part.GlobalID {
		copy(x.Row(local), su.ds.Features.Row(int(g)))
		labels[local] = su.ds.Labels[g]
		if cfg.Algo == Algo0C {
			// 0c vertices only ever see their local partial
			// neighborhood; normalize by the local degree.
			norm[local] = 1 / float32(1+part.G.InDegree(local))
		} else {
			norm[local] = su.norm[g]
		}
	}

	m, err := model.New(part.G, cfg.Model, norm)
	if err != nil {
		return nil, err
	}

	r := &rankCtx{
		id: p, world: w, cfg: cfg, part: part, plan: su.plans[p],
		model: m, x: x, labels: labels, aggDims: su.aggDims,
		globalTrain: len(su.ds.TrainIdx), globalTest: len(su.ds.TestIdx),
	}

	// Owned masks in local IDs.
	for _, g := range su.ds.TrainIdx {
		if su.owner[g] == int32(p) {
			r.ownedTrain = append(r.ownedTrain, su.pt.LocalOf[p][g])
		}
	}
	for _, g := range su.ds.TestIdx {
		if su.owner[g] == int32(p) {
			r.ownedTest = append(r.ownedTest, su.pt.LocalOf[p][g])
		}
	}

	if cfg.Algo == AlgoCDR || cfg.Algo == AlgoCDRS {
		r.captures = make([]*tensor.Matrix, len(su.aggDims))
		r.remoteAdd = make([]*tensor.Matrix, len(su.aggDims))
		r.staleTot = make([]*tensor.Matrix, len(su.aggDims))
		for l, d := range su.aggDims {
			r.captures[l] = tensor.New(nLocal, d)
			r.remoteAdd[l] = tensor.New(nLocal, d)
			r.staleTot[l] = tensor.New(nLocal, d)
		}
		r.staleMask = make([]bool, nLocal)
		r.pendingPartials = make(map[int][]delivery)
		r.pendingTotReqs = make(map[int][]totReq)
	}
	if su.overlap != nil {
		r.overlap = su.overlap[p]
	}

	// Identical hyperparameters and, after the AllReduce, identical
	// gradients ⇒ identical weight trajectories on every rank.
	if cfg.UseAdam {
		r.opt = nn.NewAdam(cfg.LR, cfg.WeightDecay)
	} else {
		r.opt = &nn.SGD{LR: cfg.LR, WeightDecay: cfg.WeightDecay}
	}
	return r, nil
}

// run trains rank r through every epoch, evaluates it, and returns the
// run's result (identical on every rank).
func (su *distSetup) run(r *rankCtx) *DistResult {
	res := &DistResult{
		Replication: su.pt.ReplicationFactor(),
		EdgeBalance: su.pt.EdgeBalance(),
		Epochs:      make([]DistEpochStat, su.cfg.Epochs),
	}
	for epoch := range res.Epochs {
		res.Epochs[epoch] = r.runEpoch(epoch)
	}
	res.TrainAcc, res.TestAcc = r.evaluate()
	res.Params = nn.FlattenParams(r.model.Params(), false)
	return res
}

// runEpoch executes one training epoch of this rank and returns the
// epoch's global simulated timing and loss. Every rank runs the same
// sequence of collectives in the same order — the exchanges, the gradient
// AllReduce, then one AllGather of every rank's epoch report — which is
// all the fabric needs to match them up.
func (r *rankCtx) runEpoch(epoch int) DistEpochStat {
	rep := r.report(r.trainEpoch(epoch))
	all := r.world.AllGather(rep.appendWords(make([]float32, 0, rankEpochWords)))
	reps := make([]rankEpoch, r.world.N)
	for rk := range reps {
		reps[rk] = rankEpochFrom(all[rk*rankEpochWords:])
	}
	return foldEpoch(r.cfg, r.model.NumParams(), r.globalTrain, reps)
}

// trainEpoch executes one rank's epoch body: forward, loss scaling,
// backward, the algorithm's exchange, the gradient AllReduce, and the
// optimizer step. Returns the rank's share of the global loss sum.
func (r *rankCtx) trainEpoch(epoch int) float64 {
	cfg := r.cfg
	r.resetCounters(epoch)
	r.installHooks(epoch)

	logits := r.model.Forward(r.x, true)
	loss, dlogits := nn.MaskedCrossEntropy(logits, r.labels, r.ownedTrain)
	// Re-weight the local mean into the global mean's share.
	scale := float32(0)
	if r.globalTrain > 0 {
		scale = float32(len(r.ownedTrain)) / float32(r.globalTrain)
	}
	dlogits.Scale(scale)
	lossPart := loss * float64(len(r.ownedTrain))

	params := r.model.Params()
	nn.ZeroGrads(params)
	r.model.Backward(dlogits)

	if cfg.Algo == AlgoCDR || cfg.Algo == AlgoCDRS {
		r.overlappedExchange(epoch)
	}

	// Parameter gradient AllReduce (sum of per-rank global-mean
	// shares = global mean) keeps all model replicas identical. The
	// flattened buffer is recycled across epochs and ranks.
	gbuf := gradScratch.Get(nn.TotalElements(params))
	nn.FlattenParamsInto(gbuf, params, true)
	r.world.AllReduceSum(gbuf)
	nn.UnflattenParams(params, gbuf, true)
	gradScratch.Put(gbuf)
	r.optStep()
	return lossPart
}

// evaluate scores this rank's owned vertices and reduces the correct
// counts across ranks into global train/test accuracy.
func (r *rankCtx) evaluate() (trainAcc, testAcc float64) {
	r.installHooks(r.cfg.Epochs) // stale buffers (cd-r/cd-rs) / sync exchange (cd-0) still apply
	logits := r.model.Forward(r.x, false)
	pred := make([]int, logits.Rows)
	logits.ArgmaxRows(pred)
	var trainC, testC float32 // small integers: exact in float32
	for _, v := range r.ownedTrain {
		if int32(pred[v]) == r.labels[v] {
			trainC++
		}
	}
	for _, v := range r.ownedTest {
		if int32(pred[v]) == r.labels[v] {
			testC++
		}
	}
	all := r.world.AllGather([]float32{trainC, testC})
	var trainTot, testTot float64
	for rk := 0; rk < r.world.N; rk++ {
		trainTot += float64(all[2*rk])
		testTot += float64(all[2*rk+1])
	}
	if r.globalTrain > 0 {
		trainAcc = trainTot / float64(r.globalTrain)
	}
	if r.globalTest > 0 {
		testAcc = testTot / float64(r.globalTest)
	}
	return trainAcc, testAcc
}

// Distributed trains GraphSAGE over NumPartitions simulated sockets and
// returns global accuracy plus per-epoch simulated timing. With a nil
// cfg.Transport every rank runs in this process over an in-process
// fabric; otherwise this process runs the one rank cfg.Transport hosts.
func Distributed(ds *datasets.Dataset, cfg DistConfig) (*DistResult, error) {
	su, err := newDistSetup(ds, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Transport != nil {
		r, err := su.newRank(comm.NewWorldTransport(cfg.Transport))
		if err != nil {
			return nil, err
		}
		return su.run(r), nil
	}
	eps := comm.NewProcFabric(cfg.NumPartitions)
	defer comm.CloseAll(eps)
	return su.runFleet(eps)
}

// DistributedFleet drives one rank per transport endpoint concurrently in
// this process — the one-process harness for a TCP fleet used by loopback
// tests and the abl-transport benchmark (real deployments run one process
// per rank instead); Distributed runs its
// in-process fabric the same way. The ranks share one partitioning.
// Endpoints must belong to a single established fabric whose size matches
// cfg.NumPartitions; they are closed only if a rank panics, so its peers
// fail instead of blocking. Returns rank 0's result.
func DistributedFleet(ds *datasets.Dataset, cfg DistConfig, endpoints []comm.Transport) (*DistResult, error) {
	su, err := newDistSetup(ds, cfg)
	if err != nil {
		return nil, err
	}
	return su.runFleet(endpoints)
}

// newRanks builds the rank each endpoint hosts, indexed by rank, plus the
// endpoints' worlds in endpoint order. Every rank is built before any of
// them communicates, so a setup error cannot strand the others in a
// collective.
func (su *distSetup) newRanks(endpoints []comm.Transport) ([]*comm.World, []*rankCtx, error) {
	ranks := make([]*rankCtx, su.cfg.NumPartitions)
	worlds := make([]*comm.World, len(endpoints))
	for i, ep := range endpoints {
		worlds[i] = comm.NewWorldTransport(ep)
		r, err := su.newRank(worlds[i])
		if err != nil {
			return nil, nil, fmt.Errorf("train: fleet endpoint %d (rank %d): %w", i, ep.Self(), err)
		}
		if ranks[r.id] != nil {
			return nil, nil, fmt.Errorf("train: fleet has two endpoints for rank %d", r.id)
		}
		ranks[r.id] = r
	}
	return worlds, ranks, nil
}

// runFleet runs every endpoint's rank concurrently and returns rank 0's
// result.
func (su *distSetup) runFleet(endpoints []comm.Transport) (*DistResult, error) {
	worlds, ranks, err := su.newRanks(endpoints)
	if err != nil {
		return nil, err
	}
	if ranks[0] == nil {
		return nil, fmt.Errorf("train: fleet has no rank-0 endpoint")
	}
	results := make([]*DistResult, len(ranks))
	comm.RunRanks(worlds, func(w *comm.World) { results[w.Self()] = su.run(ranks[w.Self()]) })
	return results[0], nil
}
