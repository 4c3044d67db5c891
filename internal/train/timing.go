package train

// timing.go converts each epoch's executed work and communication counters
// into simulated cluster time (Fig. 5/6). Each partition is modeled as one
// full CPU socket: compute terms use the per-socket throughput model and
// communication terms use the α–β network model. This is the one place
// cd-r and cd-rs differ: they run the same exchange, but cd-r is charged
// its full network term, as the blocking cd-0 is, while cd-rs pays only
// the remainder its compute failed to hide — the behaviour §6.3 reports
// ("a negligible amount of time is spent waiting for asynchronous
// overlapped communication"). That remainder is replayOverlap's: a pure
// replay of every rank's simulated clock, computed once at set-up, since
// every post size and compute charge follows from data every rank has.

import (
	"math"
	"slices"

	"distgnn/internal/comm"
	"distgnn/internal/model"
)

// aggWorkElems returns one rank's aggregation work over layers of the
// given widths in edge-feature element updates: Σ_l |E_p| × d_l.
func aggWorkElems(edges int, dims []int) int64 {
	var total int64
	for _, d := range dims {
		total += int64(edges) * int64(d)
	}
	return total
}

// mlpWorkMACs returns the dense-layer work of a rank with n local
// vertices per epoch in multiply-accumulates: forward N·in·out per layer,
// and backward dW = xᵀ·dy per layer and dx = dy·Wᵀ per layer but the
// first, whose input gradient Backward does not compute.
func mlpWorkMACs(n int, mc model.Config) int64 {
	var fwd, first int64
	in := int64(mc.InDim)
	for l := 0; l < mc.NumLayers; l++ {
		out := int64(mc.Hidden)
		if l == mc.NumLayers-1 {
			out = int64(mc.OutDim)
		}
		if l == 0 {
			first = int64(n) * in * out
		}
		fwd += int64(n) * in * out
		in = out
	}
	return 3*fwd - first
}

// rankPhaseSeconds converts one rank's epoch counters into its simulated
// phase times.
func rankPhaseSeconds(cfg *DistConfig, r *rankCtx) (lat, bwd, mlp, rat, exposed float64) {
	lat = cfg.Compute.AggSeconds(aggWorkElems(r.part.G.NumEdges, r.aggDims))
	// Backward propagates gradients over the same edges, except into
	// layer 0's input, which needs none.
	bwd = cfg.Compute.AggSeconds(aggWorkElems(r.part.G.NumEdges, r.aggDims[1:]))
	mlp = cfg.Compute.MLPSeconds(mlpWorkMACs(r.part.NumLocal(), cfg.Model))

	rat = cfg.Net.GatherSeconds(r.gatherBytes)
	switch cfg.Algo {
	case AlgoCD0, AlgoCDR:
		// Blocking exchange exposes the network time of every message:
		// cd-0 blocks at every layer in both directions, cd-r is charged
		// as if each of its per-layer posts and epoch-end totals blocked
		// (on 1/Delay of the volume).
		rat += cfg.Net.NetSeconds(r.netMsgs, r.netBytes)
	case AlgoCDRS:
		// Overlapped exchange: only the remainder compute failed to
		// hide, as replayed at set-up.
		rat += r.exposedNet
		exposed = r.exposedNet
	}
	return lat, bwd, mlp, rat, exposed
}

// wireEpoch is one rank's epoch of the delayed exchange as replayOverlap
// models it: the messages and wire bytes it posts, and the network
// seconds its compute failed to hide.
type wireEpoch struct {
	netMsgs, netBytes int64
	exposedNet        float64
}

// replayOverlap replays cd-rs's delayed exchange on a simulated clock per
// rank (replayClocks), charging each rank its own partition's work: each
// layer's forward aggregation, then the backward aggregation and the
// dense work, as rankPhaseSeconds charges them. Nothing here reads a
// message: each charge follows from a partition's edge and vertex counts
// and the config, each post size from the exchange plans, and every rank
// derives those identically.
func (su *distSetup) replayOverlap() [][]wireEpoch {
	cfg := &su.cfg
	layerNs := make([][]int64, len(su.pt.Parts))
	tailNs := make([]int64, len(su.pt.Parts))
	for p, part := range su.pt.Parts {
		layerNs[p] = make([]int64, len(su.aggDims))
		for l, d := range su.aggDims {
			layerNs[p][l] = toNs(cfg.Compute.AggSeconds(int64(part.G.NumEdges) * int64(d)))
		}
		tailNs[p] = toNs(cfg.Compute.AggSeconds(aggWorkElems(part.G.NumEdges, su.aggDims[1:])) +
			cfg.Compute.MLPSeconds(mlpWorkMACs(part.NumLocal(), cfg.Model)))
	}
	return replayClocks(cfg, su.plans, su.aggDims, layerNs, tailNs)
}

// toNs converts simulated seconds to whole nanoseconds of clock.
func toNs(sec float64) int64 { return int64(sec * 1e9) }

// replayClocks runs the delayed exchange (overlap.go) of the given plans
// and layer widths on one simulated clock per rank, and returns every
// rank's wireEpoch at every epoch, indexed [rank][epoch]. Within an epoch
// rank p's clock advances by layerNs[p][l] after layer l's aggregation,
// after which the layer's partials are posted peer by peer; then by
// tailNs[p]. Posts serialize on the rank's injection port, each taking
// α + bytes/β from max(clock, port). The epoch end waits the epoch's
// partials in post order (layer-major, then peer-ascending), posts the
// roots' totals, and waits the totals due this epoch by peer. A wait past
// the clock exposes the difference and moves the clock to it. The epoch's
// closing collectives are a barrier: every clock resumes at the slowest.
func replayClocks(cfg *DistConfig, plans []*xplan, dims []int, layerNs [][]int64, tailNs []int64) [][]wireEpoch {
	k, layers := len(plans), len(dims)
	wordBytes := int64(cfg.CommPrecision.Bytes())
	totWords := 0 // words per row of a total: every layer concatenated
	for _, d := range dims {
		totWords += d
	}
	out := make([][]wireEpoch, k)
	for p := range out {
		out[p] = make([]wireEpoch, cfg.Epochs)
	}

	clock := make([]int64, k) // each rank's simulated clock, ns
	port := make([]int64, k)  // when each rank's injection port frees up
	post := func(p, e int, bytes int64) int64 {
		port[p] = max(clock[p], port[p]) + toNs(cfg.Net.NetSeconds(1, bytes))
		out[p][e].netMsgs++
		out[p][e].netBytes += bytes
		return port[p]
	}
	wait := func(p, e int, ready int64) {
		if ready > clock[p] {
			out[p][e].exposedNet += float64(ready-clock[p]) / 1e9
			clock[p] = ready
		}
	}

	partials := make([]int64, k*k*layers) // [from][to][layer]: this epoch's partials ready
	totals := make([][]int64, cfg.Epochs) // [epoch][root·k+leaf]: totals ready
	for e := range cfg.Epochs {
		bin := e % plans[0].bins
		for q, plan := range plans {
			for l, d := range dims {
				clock[q] += layerNs[q][l]
				for p, rows := range plan.leafSend[bin] {
					if len(rows) > 0 {
						partials[(q*k+p)*layers+l] = post(q, e, int64(len(rows)*d)*wordBytes)
					}
				}
			}
		}
		if e >= cfg.Delay { // roots hold due partials, so send totals
			totals[e] = make([]int64, k*k)
		}
		for p, plan := range plans {
			clock[p] += tailNs[p]
			for l := range layers {
				for q, rows := range plan.rootRecv[bin] {
					if len(rows) > 0 {
						wait(p, e, partials[(q*k+p)*layers+l])
					}
				}
			}
			if totals[e] != nil {
				for q, rows := range plan.rootSend[bin] {
					if len(rows) > 0 {
						totals[e][p*k+q] = post(p, e, int64(len(rows)*totWords)*wordBytes)
					}
				}
			}
			if from := e - cfg.Delay; from >= 0 && totals[from] != nil {
				for q, rows := range plan.leafRecv[from%plan.bins] {
					if len(rows) > 0 {
						wait(p, e, totals[from][q*k+p])
					}
				}
			}
		}
		slowest := slices.Max(clock)
		for p := range clock {
			clock[p] = slowest
		}
	}
	return out
}

// rankEpoch is one rank's epoch report — its simulated phase times and
// its share of the loss sum — the payload of the one stat AllGather each
// epoch makes.
type rankEpoch struct {
	lat, bwd, mlp, rat, exposed float64
	lossPart                    float64
}

// rankEpochWords is a report's wire size: six 64-bit values, each carried
// as its raw bit pattern in two float32 words (comm.AppendF64) so the
// reduction is bit-identical on every rank and fabric.
const rankEpochWords = 12

// report assembles this rank's epoch report from its counters.
func (r *rankCtx) report(lossPart float64) rankEpoch {
	e := rankEpoch{lossPart: lossPart}
	e.lat, e.bwd, e.mlp, e.rat, e.exposed = rankPhaseSeconds(r.cfg, r)
	return e
}

func (e rankEpoch) appendWords(dst []float32) []float32 {
	for _, v := range [...]float64{e.lat, e.bwd, e.mlp, e.rat, e.exposed, e.lossPart} {
		dst = comm.AppendF64(dst, v)
	}
	return dst
}

func rankEpochFrom(w []float32) rankEpoch {
	get := func(i int) float64 { return comm.F64(w[2*i:]) }
	return rankEpoch{
		lat: get(0), bwd: get(1), mlp: get(2), rat: get(3), exposed: get(4),
		lossPart: get(5),
	}
}

// foldEpoch combines every rank's report, in rank order, into the epoch's
// stat: the slowest rank bounds each phase (bulk-synchronous execution)
// and the loss parts sum into the global mean.
func foldEpoch(cfg *DistConfig, numParams, globalTrain int, reps []rankEpoch) DistEpochStat {
	var st DistEpochStat
	var lsum float64
	for _, e := range reps {
		st.LAT = math.Max(st.LAT, e.lat)
		st.BwdAgg = math.Max(st.BwdAgg, e.bwd)
		st.MLP = math.Max(st.MLP, e.mlp)
		st.RAT = math.Max(st.RAT, e.rat)
		st.ExposedNet = math.Max(st.ExposedNet, e.exposed)
		lsum += e.lossPart
	}
	if globalTrain > 0 {
		st.Loss = lsum / float64(globalTrain)
	}
	// The per-epoch gradient AllReduce: a ring over the flattened
	// parameter buffer.
	st.ParamSync = cfg.Net.AllReduceSeconds(4*numParams, cfg.NumPartitions)
	st.Epoch = st.LAT + st.BwdAgg + st.MLP + st.RAT + st.ParamSync
	return st
}
