package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/partition"
	"distgnn/internal/train"
)

// fbDistConfig sizes the distributed full-batch workload.
type fbDistConfig struct {
	Dataset string
	Scale   float64
	Ranks   int
	Delay   int // r of cd-rs
	Hidden  int
	Layers  int
	// ShortEpochs and LongEpochs are the two run lengths. One short run
	// is made, then long runs repeat, each from the same seed and each
	// after a set-up, until --seconds have passed, and at least minRuns
	// times. The library reports no per-epoch wall time, so each long
	// run's steady-state epochs are timed from rank 0's collective calls,
	// with the short run telling which calls fall outside the epochs
	// (epochIntervals). Both lengths exceed 2·Delay: cd-rs posts reduced
	// totals from epoch Delay on and applies them from epoch 2·Delay on,
	// so only epochs from 2·Delay on run the whole pipeline, and only
	// those are timed.
	ShortEpochs, LongEpochs int
}

// fbDistFull is the paper's distributed setting: 2 ranks over loopback
// TCP, Libra vertex-cut, cd-rs with r=5, on the sparse ogbn-products-sim
// at 1/80 of base scale (205 vertices, ≈4.5 K edges), so that an epoch
// (≈7 ms on an idle core) often falls where the core's co-tenant is idle
// (see README.md, "Why the training graphs are small"). Each long run's
// epochs 10–12 (0-based) are in cd-rs steady state and give 2 timed
// epochs; runs stop at 13 epochs because on graphs this small the loss
// after more epochs varies more from seed to seed.
var fbDistFull = fbDistConfig{
	Dataset: "ogbn-products-sim", Scale: 0.0125, Ranks: 2, Delay: 5, Hidden: 64, Layers: 3,
	ShortEpochs: 11, LongEpochs: 13,
}

// steady is the first epoch (0-based) that applies delayed totals.
func (c fbDistConfig) steady() int { return 2 * c.Delay }

const netTimeout = time.Minute

func (c fbDistConfig) dist(seed int64, epochs int) train.DistConfig {
	return train.DistConfig{
		Model:         model.Config{Hidden: c.Hidden, NumLayers: c.Layers, Seed: seed},
		NumPartitions: c.Ranks, Algo: train.AlgoCDRS, Delay: c.Delay, Epochs: epochs,
		LR: trainLR, WeightDecay: trainWD, UseAdam: true, Seed: seed,
	}
}

// distRun is one train.DistributedFleet call on a fresh fabric.
type distRun struct {
	res   *train.DistResult
	net   comm.TransportStats // summed over ranks
	colls []time.Time         // when rank 0 entered each collective
}

// collClock passes one rank's endpoint through and notes when the rank
// first names each collective. Collectives over a single-rank endpoint
// reserve the tags -1, -2, … in order, and every rank sends or receives
// under each of them, so the first call naming tag -k marks the rank's
// entry into the k-th collective. Point-to-point tags are non-negative
// and pass unnoted.
type collClock struct {
	comm.Transport
	mu    sync.Mutex
	marks []time.Time
	skip  int // a tag first named out of order, or 0
}

func (c *collClock) note(tag int) {
	if tag >= 0 {
		return
	}
	now := time.Now()
	c.mu.Lock()
	switch k := -tag; {
	case k == len(c.marks)+1:
		c.marks = append(c.marks, now)
	case k > len(c.marks)+1 && c.skip == 0:
		c.skip = k
	}
	c.mu.Unlock()
}

func (c *collClock) Send(from, to int, env *comm.Envelope) error {
	c.note(env.Tag)
	return c.Transport.Send(from, to, env)
}

func (c *collClock) Recv(to, from, tag int) (*comm.Envelope, error) {
	c.note(tag)
	return c.Transport.Recv(to, from, tag)
}

func (c *collClock) Poll(to, from, tag int) (*comm.Envelope, bool, error) {
	c.note(tag)
	return c.Transport.Poll(to, from, tag)
}

func (c fbDistConfig) run(ds *datasets.Dataset, seed int64, epochs int) (distRun, error) {
	eps, err := comm.NewLoopbackTCP(c.Ranks, netTimeout)
	if err != nil {
		return distRun{}, err
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	fleet := append([]comm.Transport(nil), eps...)
	var clock *collClock
	for i, ep := range eps {
		if ep.Self() == 0 {
			clock = &collClock{Transport: ep}
			fleet[i] = clock
		}
	}
	if clock == nil {
		return distRun{}, fmt.Errorf("fabric has no rank-0 endpoint")
	}
	res, err := train.DistributedFleet(ds, c.dist(seed, epochs), fleet)
	if err != nil {
		return distRun{}, err
	}
	if clock.skip != 0 {
		return distRun{}, fmt.Errorf("rank 0 first named collective tag %d after %d collectives", -clock.skip, len(clock.marks))
	}
	var net comm.TransportStats
	for _, ep := range eps {
		src, ok := ep.(comm.NetStatsSource)
		if !ok {
			return distRun{}, fmt.Errorf("transport %T counts no traffic", ep)
		}
		s := src.NetStats()
		net.SentMsgs += s.SentMsgs
		net.SentBytes += s.SentBytes
		net.P2PBytes += s.P2PBytes
		net.CollectiveBytes += s.CollectiveBytes
	}
	return distRun{res: res, net: net, colls: clock.marks}, nil
}

// runFBDist trains through train.DistributedFleet over comm.NewLoopbackTCP,
// with a timed set-up before every training run. The gated epoch time is
// the fastest steady-state epoch of the long runs, timed between rank 0's
// collectives; epoch_s is their median.
func runFBDist(c fbDistConfig, o options) *report {
	r := newReport("fb-dist")
	if c.ShortEpochs <= c.steady() || c.LongEpochs <= c.ShortEpochs {
		r.problem(fmt.Errorf("run lengths %d and %d must exceed 2·Delay = %d and differ", c.ShortEpochs, c.LongEpochs, c.steady()))
		return r
	}
	spec, err := datasets.SpecFor(c.Dataset, c.Scale)
	if err != nil {
		r.problem(err)
		return r
	}
	spec.Seed = o.seed
	var ds *datasets.Dataset
	var pt *partition.Partitioning
	var setup setupTimer
	var establish, libra []float64
	// setUp is one timed set-up: generation, fabric establishment and the
	// Libra partition (timed through partition.Partition on the inputs the
	// trainer partitions). One precedes every training run.
	setUp := func() error {
		setup.start()
		var err error
		if ds, err = datasets.Generate(spec); err != nil {
			return err
		}
		t1 := time.Now()
		eps, err := comm.NewLoopbackTCP(c.Ranks, netTimeout)
		if err != nil {
			return err
		}
		t2 := time.Now()
		pt, err = partition.Partition(ds.G, partition.Libra{Seed: o.seed}, c.Ranks, o.seed)
		t3 := time.Now()
		setup.stop()
		for _, ep := range eps {
			ep.Close()
		}
		establish = append(establish, ms(t2.Sub(t1)))
		libra = append(libra, ms(t3.Sub(t2)))
		return err
	}
	settle()
	heap := startHeapPeak()
	var mem memDelta
	var trainWall time.Duration
	timed := func(epochs int) (distRun, error) {
		if err := setUp(); err != nil {
			return distRun{}, fmt.Errorf("set-up: %w", err)
		}
		m0, w0 := memMark(), time.Now()
		dr, err := c.run(ds, o.seed, epochs)
		trainWall += time.Since(w0)
		mem.add(memSince(m0))
		if err != nil {
			return distRun{}, fmt.Errorf("%d-epoch run: %w", epochs, err)
		}
		return dr, nil
	}
	t0 := time.Now()
	short, err := timed(c.ShortEpochs)
	var long []distRun
	for err == nil && (len(long) < minRuns || time.Since(t0).Seconds() < o.seconds) {
		var lr distRun
		if lr, err = timed(c.LongEpochs); err == nil {
			long = append(long, lr)
		}
	}
	r.layer["runtime.peak_heap_mb"] = heap.stopMB()
	if err != nil {
		r.problem(err)
		return r
	}
	r.ops(int64(c.ShortEpochs+len(long)*c.LongEpochs), 0)
	r.e2e["setup_s"] = median(setup.cpu)
	r.layer["comm.establish_ms"] = median(establish)
	r.layer["partition.libra_ms"] = median(libra)
	r.layer["partition.replication"] = pt.ReplicationFactor()
	r.note("graph: %d vertices, %d edges; %d ranks, replication %.3f; set-up %.4f CPU s, %.4f wall s (medians of %d)",
		ds.G.NumVertices, ds.G.NumEdges, c.Ranks, pt.ReplicationFactor(), median(setup.cpu), median(setup.wall), len(setup.cpu))

	// Every run starts from the same seed: the short run's losses and every
	// later long run's equal the first long run's bit for bit.
	first := long[0]
	losses := lossesOf(first.res)
	for i, l := range losses {
		r.check(!math.IsNaN(l) && !math.IsInf(l, 0), "epoch %d loss %v is not finite", i, l)
	}
	i := firstDiff(lossesOf(short.res), losses[:c.ShortEpochs])
	r.check(i < 0, "epoch %d loss of the %d-epoch run differs from the %d-epoch run's", i, c.ShortEpochs, c.LongEpochs)
	var steadyS []float64
	for k, lr := range long {
		if k > 0 {
			i := firstDiff(lossesOf(lr.res), losses)
			r.check(i < 0, "long run %d: epoch %d loss differs from the first long run's", k, i)
		}
		iv, err := epochIntervals(len(short.colls), c.ShortEpochs, lr.colls, c.LongEpochs, c.steady())
		if err != nil {
			r.problem(err)
			return r
		}
		steadyS = append(steadyS, iv...)
	}
	r.e2e["op_ms"] = 1000 * fastest(steadyS)
	r.e2e["final_loss"] = losses[c.LongEpochs-1]
	r.layer["epoch_s"] = median(steadyS)
	dE := float64(c.LongEpochs - c.ShortEpochs)
	perEpoch := func(a, b int64) float64 { return float64(b-a) / dE / float64(c.Ranks) }
	r.layer["comm.bytes_per_epoch"] = perEpoch(short.net.SentBytes, first.net.SentBytes)
	r.layer["comm.p2p_bytes_per_epoch"] = perEpoch(short.net.P2PBytes, first.net.P2PBytes)
	r.layer["comm.collective_bytes_per_epoch"] = perEpoch(short.net.CollectiveBytes, first.net.CollectiveBytes)
	r.layer["comm.msgs_per_epoch"] = perEpoch(short.net.SentMsgs, first.net.SentMsgs)
	epochs := float64(c.ShortEpochs + len(long)*c.LongEpochs)
	r.layer["runtime.alloc_mb_per_epoch"] = float64(mem.allocBytes) / (1 << 20) / epochs
	r.layer["runtime.gc_pause_ms_per_s"] = ms(mem.pause) / trainWall.Seconds()

	// The paper's Fig. 6 split, from the cost model (seconds derived from
	// counted work and traffic, not wall time), over the steady-state
	// epochs, which apply delayed totals.
	var lat, rat, mlp, psync, exposed []float64
	for i, e := range first.res.Epochs {
		if i < c.steady() {
			continue
		}
		lat = append(lat, 1000*e.LAT)
		rat = append(rat, 1000*e.RAT)
		mlp = append(mlp, 1000*e.MLP)
		psync = append(psync, 1000*e.ParamSync)
		exposed = append(exposed, 1000*e.ExposedNet)
	}
	r.layer["train.sim_lat_ms"] = median(lat)
	r.layer["train.sim_rat_ms"] = median(rat)
	r.layer["train.sim_mlp_ms"] = median(mlp)
	r.layer["train.sim_param_sync_ms"] = median(psync)
	r.layer["train.sim_exposed_net_ms"] = median(exposed)
	r.note("%d runs of %d epochs after one of %d: fastest epoch %.3f ms, epoch_s %.5f (median of %d steady-state epochs)",
		len(long), c.LongEpochs, c.ShortEpochs, r.e2e["op_ms"], median(steadyS), len(steadyS))
	r.note("final_loss %.6f, test acc %.4f, %.0f B/epoch/rank on the wire",
		r.e2e["final_loss"], first.res.TestAcc, r.layer["comm.bytes_per_epoch"])

	// Every per-layer figure above comes from a counter, the cost model or
	// a timer around a whole call, so the traced run adds no probe.
	r.layer["trace_overhead"] = 1
	return r
}

// lossesOf lists a run's per-epoch training losses.
func lossesOf(res *train.DistResult) []float64 {
	out := make([]float64, len(res.Epochs))
	for i, e := range res.Epochs {
		out[i] = e.Loss
	}
	return out
}
