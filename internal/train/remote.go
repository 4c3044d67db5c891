package train

// remote.go drives exactly one rank of a distributed run when
// DistConfig.Transport is a single-rank endpoint — true multi-process
// training, each rank its own OS process over TCP. The per-rank epoch body
// is the same code the in-process driver runs; only the cross-rank
// reductions the in-process driver performs in shared memory differ, and
// each of those is carried over the fabric with the same rank-ordered
// float arithmetic:
//
//   - the gradient AllReduce goes through comm's transport collectives,
//     which reduce in rank order — the in-process float order exactly;
//   - the loss sum and per-phase timing maxima ride one AllGather per
//     epoch, with each float64 shipped as its raw bit pattern (two float32
//     words) so the aggregation is bit-identical to the shared-memory
//     driver, not a rounded approximation.
//
// The net effect, pinned by the cross-transport conformance harness: a
// 4-process TCP fleet reports the same losses and trains the same
// parameters, bit for bit, as the 4-goroutine in-process world.

import (
	"fmt"
	"math"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/parallel"
)

// DistributedFleet drives one Distributed trainer per transport endpoint
// concurrently — the one-process harness for a whole multi-process fleet,
// used by loopback tests, the abl-transport benchmark, and the tcploopback
// example (real deployments run one process per rank instead). Endpoints
// must belong to a single established fabric whose size matches
// cfg.NumPartitions; they are not closed. Returns rank 0's result.
func DistributedFleet(ds *datasets.Dataset, cfg DistConfig, endpoints []comm.Transport) (*DistResult, error) {
	results := make([]*DistResult, len(endpoints))
	errs := make([]error, len(endpoints))
	var g parallel.Group
	for i := range endpoints {
		i := i
		g.Go(func() {
			rcfg := cfg
			rcfg.Transport = endpoints[i]
			results[i], errs[i] = Distributed(ds, rcfg)
		})
	}
	g.Wait()
	var rank0 *DistResult
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("train: fleet endpoint %d (rank %d): %w", i, endpoints[i].Self(), err)
		}
		if endpoints[i].Self() == 0 {
			rank0 = results[i]
		}
	}
	if rank0 == nil {
		return nil, fmt.Errorf("train: fleet has no rank-0 endpoint")
	}
	return rank0, nil
}

// statWords is the per-rank epoch report: 5 phase times plus the loss
// part, each as a float64 carried in two float32 words (comm.AppendF64).
const statWords = 12

// runEpochRemote executes one epoch of this process's rank. Every process
// in the fleet runs the same sequence of collectives in the same order —
// gradient AllReduce, then the stat gather — which is all the transport
// needs to match them up.
func (s *distState) runEpochRemote(epoch int) DistEpochStat {
	cfg := &s.cfg
	r := s.ranks[s.local]
	if cfg.Algo == AlgoCDRS {
		// Each process owns only its own rank's simulated clock, so this
		// aligns nothing across the fleet (unlike the in-process driver) —
		// per-rank overlap windows still reset correctly, but cross-rank
		// clock skew is not cancelled and simulated timings are advisory in
		// multi-process mode. Real wall-clock is what TCP runs measure.
		cfg.Net.SyncClocks()
	}
	return s.gatherEpochStat(r, s.trainEpochRank(r, epoch))
}

// gatherEpochStat assembles the epoch's global timing and loss from every
// rank's counters: one AllGather of the per-rank phase times and loss
// parts, then the same max/sum the in-process timeEpoch computes.
func (s *distState) gatherEpochStat(r *rankCtx, lossPart float64) DistEpochStat {
	lat, bwd, mlp, rat, exposed := rankPhaseSeconds(&s.cfg, r)
	local := make([]float32, 0, statWords)
	for _, v := range [...]float64{lat, bwd, mlp, rat, exposed, lossPart} {
		local = comm.AppendF64(local, v)
	}
	all := s.world.AllGather(s.local, local)

	var st DistEpochStat
	var lsum float64
	for rk := 0; rk < s.cfg.NumPartitions; rk++ {
		w := all[rk*statWords : (rk+1)*statWords]
		get := func(i int) float64 { return comm.F64(w[2*i:]) }
		st.LAT = math.Max(st.LAT, get(0))
		st.BwdAgg = math.Max(st.BwdAgg, get(1))
		st.MLP = math.Max(st.MLP, get(2))
		st.RAT = math.Max(st.RAT, get(3))
		st.ExposedNet = math.Max(st.ExposedNet, get(4))
		lsum += get(5)
	}
	if s.globalTrain > 0 {
		st.Loss = lsum / float64(s.globalTrain)
	}
	st.ParamSync = paramSyncSeconds(&s.cfg, r.model.NumParams())
	st.Epoch = st.LAT + st.BwdAgg + st.MLP + st.RAT + st.ParamSync
	return st
}

// evaluateRemote scores this rank's owned vertices and reduces the correct
// counts across the fleet.
func (s *distState) evaluateRemote() (trainAcc, testAcc float64) {
	r := s.ranks[s.local]
	trainC, testC := s.evalRank(r)
	// Counts are small integers: exact in float32.
	all := s.world.AllGather(s.local, []float32{float32(trainC), float32(testC)})
	var trainTot, testTot float64
	for rk := 0; rk < s.cfg.NumPartitions; rk++ {
		trainTot += float64(all[2*rk])
		testTot += float64(all[2*rk+1])
	}
	if s.globalTrain > 0 {
		trainAcc = trainTot / float64(s.globalTrain)
	}
	if len(s.testIdx) > 0 {
		testAcc = testTot / float64(len(s.testIdx))
	}
	return trainAcc, testAcc
}
