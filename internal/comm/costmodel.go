package comm

import (
	"sync"
	"time"
)

// CostModel is an α–β (latency–bandwidth) account of what the in-process
// message traffic would cost on a real cluster fabric. The paper's cluster
// is Xeon 9242 sockets on Mellanox HDR (200 Gb/s) with a DragonFly
// topology; the defaults below approximate one socket's share of that
// fabric. All times are simulated seconds, accumulated per rank.
//
// The model serves the scaling experiments (Fig. 5/6): local compute is
// measured for real, remote aggregation cost = pre/post processing
// (gather/scatter at memory bandwidth) + network transfer (α + bytes/β),
// and delayed algorithms (cd-r) hide the network term behind compute,
// paying only pre/post processing — exactly the behaviour §6.3 reports.
type CostModel struct {
	// NetLatency α: per-message software+fabric latency (seconds).
	NetLatency float64
	// NetBandwidth β: per-socket network bandwidth (bytes/second).
	NetBandwidth float64
	// MemBandwidth: per-socket memory bandwidth for gather/scatter
	// pre/post processing (bytes/second).
	MemBandwidth float64

	mu    sync.Mutex
	simNs []int64 // accumulated simulated time per rank, nanoseconds
	// injNs[rank] is when the rank's network injection port frees up:
	// nonblocking transfers posted back to back serialize on it.
	injNs []int64
}

// DefaultCostModel approximates one Xeon socket's effective share of an HDR
// fabric under collective traffic: 5 µs message latency (software + switch
// hops), 2.5 GB/s effective per-socket AlltoAll bandwidth (HDR's 25 GB/s
// line rate divided across a dual-socket node and collective contention),
// and 80 GB/s memory bandwidth for gather/scatter staging.
func DefaultCostModel(numRanks int) *CostModel {
	return &CostModel{
		NetLatency:   5e-6,
		NetBandwidth: 2.5e9,
		MemBandwidth: 80e9,
		simNs:        make([]int64, numRanks),
		injNs:        make([]int64, numRanks),
	}
}

// ChargeGatherScatter accounts a local gather or scatter-reduce of the
// given byte volume (pre/post processing of Alg. 4 lines 10, 14, 15, 20).
func (c *CostModel) ChargeGatherScatter(rank int, bytes int) float64 {
	t := float64(bytes) / c.MemBandwidth
	c.add(rank, t)
	return t
}

// ChargeAlltoAll accounts one AlltoAll step from this rank's perspective:
// one message per peer with data, plus serialization of the send volume
// on this rank's injection bandwidth.
func (c *CostModel) ChargeAlltoAll(rank int, bytesPerPeer []int) float64 {
	msgs := 0
	total := 0
	for _, b := range bytesPerPeer {
		if b > 0 {
			msgs++
			total += b
		}
	}
	t := float64(msgs)*c.NetLatency + float64(total)/c.NetBandwidth
	c.add(rank, t)
	return t
}

// ChargeAllReduce accounts a ring AllReduce of the given byte volume over
// k ranks: 2(k-1) steps, each moving bytes/k.
func (c *CostModel) ChargeAllReduce(rank int, bytes, k int) float64 {
	if k <= 1 {
		return 0
	}
	steps := 2 * (k - 1)
	t := float64(steps)*c.NetLatency + float64(steps)*float64(bytes)/float64(k)/c.NetBandwidth
	c.add(rank, t)
	return t
}

func (c *CostModel) add(rank int, seconds float64) {
	c.mu.Lock()
	c.ensure(rank)
	c.simNs[rank] += int64(seconds * 1e9)
	c.mu.Unlock()
}

// ensure grows the per-rank ledgers to cover rank. Caller holds c.mu.
func (c *CostModel) ensure(rank int) {
	for len(c.simNs) <= rank {
		c.simNs = append(c.simNs, 0)
	}
	for len(c.injNs) <= rank {
		c.injNs = append(c.injNs, 0)
	}
}

// ChargeCompute advances a rank's simulated clock by compute seconds — the
// time nonblocking transfers posted earlier can hide behind. The overlapped
// cd-rs trainer charges each layer's aggregation and dense work here so the
// clock races the in-flight transfers.
func (c *CostModel) ChargeCompute(rank int, seconds float64) {
	c.add(rank, seconds)
}

// PostXfer books a nonblocking transfer of the given wire volume posted by
// rank at its current simulated clock. Transfers serialize on the rank's
// injection port; each costs α + bytes/β on the fabric. The poster's clock
// does NOT advance — the transfer proceeds concurrently with whatever
// compute is charged next. Returns the simulated completion time in
// nanoseconds.
func (c *CostModel) PostXfer(rank, bytes int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensure(rank)
	durNs := int64((c.NetLatency + float64(bytes)/c.NetBandwidth) * 1e9)
	start := max(c.simNs[rank], c.injNs[rank])
	c.injNs[rank] = start + durNs
	return c.injNs[rank]
}

// clockNs reads a rank's current simulated clock.
func (c *CostModel) clockNs(rank int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensure(rank)
	return c.simNs[rank]
}

// WaitXfer charges rank only the un-hidden remainder of a transfer that
// completes at readyNs: if the rank's compute already advanced its clock
// past the completion time the wait is free, otherwise the clock jumps to
// readyNs and the exposed seconds are returned — the §6.3 accounting where
// overlapped communication costs only what compute failed to cover.
func (c *CostModel) WaitXfer(rank int, readyNs int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensure(rank)
	exposedNs := readyNs - c.simNs[rank]
	if exposedNs <= 0 {
		return 0
	}
	c.simNs[rank] = readyNs
	return float64(exposedNs) / 1e9
}

// AdvanceClock raises rank's simulated clock to t if it is behind — one
// rank's half of the simulated bulk-synchronous barrier at the end of each
// epoch: every rank shares its clock in the epoch's stat gather and
// advances to the slowest. Without it, per-rank clocks would drift apart
// without bound as partitions with unequal work accumulate unequal
// compute, and the cross-rank ready-vs-clock comparison in WaitXfer would
// charge phantom exposure for skew the epoch's max-across-ranks timing
// already covers.
func (c *CostModel) AdvanceClock(rank int, t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensure(rank)
	if int64(t) > c.simNs[rank] {
		c.simNs[rank] = int64(t)
	}
}

// SimTime returns the simulated time accumulated for a rank.
func (c *CostModel) SimTime(rank int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensure(rank)
	return time.Duration(c.simNs[rank])
}

// MaxSimTime returns the maximum accumulated simulated time across ranks —
// the critical-path communication cost.
func (c *CostModel) MaxSimTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var m int64
	for _, v := range c.simNs {
		if v > m {
			m = v
		}
	}
	return time.Duration(m)
}

// Reset zeroes all per-rank accounts, including pending injection ports.
func (c *CostModel) Reset() {
	c.mu.Lock()
	for i := range c.simNs {
		c.simNs[i] = 0
	}
	for i := range c.injNs {
		c.injNs[i] = 0
	}
	c.mu.Unlock()
}
