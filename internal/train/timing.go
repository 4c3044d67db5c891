package train

// timing.go converts each epoch's executed work and communication counters
// into simulated cluster time (Fig. 5/6). Each partition is modeled as one
// full CPU socket: compute terms use the calibrated per-socket throughput
// model and communication terms use the α–β network model. This is the
// one place cd-r and cd-rs differ: they run the same exchange, but cd-r
// is charged its full network term, as the blocking cd-0 is, while cd-rs
// pays only the remainder its compute failed to hide — the behaviour §6.3
// reports ("a negligible amount of time is spent waiting for asynchronous
// overlapped communication").

import (
	"math"
	"time"

	"distgnn/internal/comm"
)

// aggWorkElems returns the forward aggregation work of one rank in
// edge-feature element updates: Σ_layers |E_p| × d_l.
func (r *rankCtx) aggWorkElems() int64 {
	var total int64
	for _, d := range r.aggDims {
		total += int64(r.part.G.NumEdges) * int64(d)
	}
	return total
}

// mlpWorkMACs returns the dense-layer work of one rank per epoch in
// multiply-accumulates: forward N·in·out per layer, ×3 for backward
// (dW = xᵀ·dy and dx = dy·Wᵀ).
func (r *rankCtx) mlpWorkMACs() int64 {
	n := int64(r.part.NumLocal())
	var fwd int64
	in := int64(r.cfg.Model.InDim)
	for l := 0; l < r.cfg.Model.NumLayers; l++ {
		out := int64(r.cfg.Model.Hidden)
		if l == r.cfg.Model.NumLayers-1 {
			out = int64(r.cfg.Model.OutDim)
		}
		fwd += n * in * out
		in = out
	}
	return 3 * fwd
}

// rankPhaseSeconds converts one rank's epoch counters into its simulated
// phase times.
func rankPhaseSeconds(cfg *DistConfig, r *rankCtx) (lat, bwd, mlp, rat, exposed float64) {
	lat = cfg.Compute.AggSeconds(r.aggWorkElems())
	bwd = lat // backward propagates gradients over the same edges
	mlp = cfg.Compute.MLPSeconds(r.mlpWorkMACs())

	rat = float64(r.gatherBytes) / cfg.Net.MemBandwidth
	switch cfg.Algo {
	case AlgoCD0, AlgoCDR:
		// Blocking exchange exposes the network time of every message:
		// cd-0 blocks at every layer in both directions, cd-r is charged
		// as if each of its per-layer posts and epoch-end totals blocked
		// (on 1/Delay of the volume).
		rat += float64(r.netMsgs)*cfg.Net.NetLatency +
			float64(r.netBytes)/cfg.Net.NetBandwidth
	case AlgoCDRS:
		// Overlapped exchange: only the remainder compute failed to
		// hide, as accounted at each Wait.
		rat += r.exposedNet
		exposed = r.exposedNet
	}
	return lat, bwd, mlp, rat, exposed
}

// paramSyncSeconds models the per-epoch gradient AllReduce: a ring over K
// ranks of the flattened parameter buffer.
func paramSyncSeconds(cfg *DistConfig, numParams int) float64 {
	if cfg.NumPartitions <= 1 {
		return 0
	}
	bytes := numParams * 4
	steps := float64(2 * (cfg.NumPartitions - 1))
	return steps*cfg.Net.NetLatency +
		steps*float64(bytes)/float64(cfg.NumPartitions)/cfg.Net.NetBandwidth
}

// rankEpoch is one rank's epoch report — its simulated phase times, its
// share of the loss sum, and its simulated clock — the payload of the one
// stat AllGather each epoch makes.
type rankEpoch struct {
	lat, bwd, mlp, rat, exposed float64
	lossPart                    float64
	clock                       time.Duration
}

// rankEpochWords is a report's wire size: seven 64-bit values, each
// carried as its raw bit pattern in two float32 words (comm.AppendF64) so
// the reduction is bit-identical on every rank and fabric.
const rankEpochWords = 14

// report assembles this rank's epoch report from its counters.
func (r *rankCtx) report(lossPart float64) rankEpoch {
	e := rankEpoch{lossPart: lossPart, clock: r.cfg.Net.SimTime(r.id)}
	e.lat, e.bwd, e.mlp, e.rat, e.exposed = rankPhaseSeconds(r.cfg, r)
	return e
}

func (e rankEpoch) appendWords(dst []float32) []float32 {
	for _, v := range [...]float64{e.lat, e.bwd, e.mlp, e.rat, e.exposed, e.lossPart,
		math.Float64frombits(uint64(e.clock))} {
		dst = comm.AppendF64(dst, v)
	}
	return dst
}

func rankEpochFrom(w []float32) rankEpoch {
	get := func(i int) float64 { return comm.F64(w[2*i:]) }
	return rankEpoch{
		lat: get(0), bwd: get(1), mlp: get(2), rat: get(3), exposed: get(4),
		lossPart: get(5), clock: time.Duration(math.Float64bits(get(6))),
	}
}

// foldEpoch combines every rank's report, in rank order, into the epoch's
// stat: the slowest rank bounds each phase (bulk-synchronous execution)
// and the loss parts sum into the global mean. It also returns the slowest
// rank's simulated clock, where every rank resumes.
func foldEpoch(cfg *DistConfig, numParams, globalTrain int, reps []rankEpoch) (DistEpochStat, time.Duration) {
	var st DistEpochStat
	var lsum float64
	var clock time.Duration
	for _, e := range reps {
		st.LAT = math.Max(st.LAT, e.lat)
		st.BwdAgg = math.Max(st.BwdAgg, e.bwd)
		st.MLP = math.Max(st.MLP, e.mlp)
		st.RAT = math.Max(st.RAT, e.rat)
		st.ExposedNet = math.Max(st.ExposedNet, e.exposed)
		lsum += e.lossPart
		clock = max(clock, e.clock)
	}
	if globalTrain > 0 {
		st.Loss = lsum / float64(globalTrain)
	}
	st.ParamSync = paramSyncSeconds(cfg, numParams)
	st.Epoch = st.LAT + st.BwdAgg + st.MLP + st.RAT + st.ParamSync
	return st, clock
}
