package comm

// CostModel is an α–β (latency–bandwidth) account of what the message
// traffic would cost on a real cluster fabric. The paper's cluster is
// Xeon 9242 sockets on Mellanox HDR (200 Gb/s) with a DragonFly topology;
// the defaults below approximate one socket's share of that fabric.
//
// The model serves the scaling experiments (Fig. 5/6): remote aggregation
// cost = pre/post processing (gather/scatter at memory bandwidth) +
// network transfer (α + bytes/β). It holds no state: the trainer's
// timing (train/timing.go) applies it to counted traffic, and replays
// cd-rs's overlap of that traffic with compute, from data every rank
// already has.
type CostModel struct {
	// NetLatency α: per-message software+fabric latency (seconds).
	NetLatency float64
	// NetBandwidth β: per-socket network bandwidth (bytes/second).
	NetBandwidth float64
	// MemBandwidth: per-socket memory bandwidth for gather/scatter
	// pre/post processing (bytes/second).
	MemBandwidth float64
}

// DefaultCostModel approximates one Xeon socket's effective share of an HDR
// fabric under collective traffic: 5 µs message latency (software + switch
// hops), 2.5 GB/s effective per-socket AlltoAll bandwidth (HDR's 25 GB/s
// line rate divided across a dual-socket node and collective contention),
// and 80 GB/s memory bandwidth for gather/scatter staging.
func DefaultCostModel() CostModel {
	return CostModel{NetLatency: 5e-6, NetBandwidth: 2.5e9, MemBandwidth: 80e9}
}

// GatherSeconds is a local gather or scatter-reduce of the given byte
// volume (pre/post processing of Alg. 4 lines 10, 14, 15, 20).
func (c CostModel) GatherSeconds(bytes int64) float64 {
	return float64(bytes) / c.MemBandwidth
}

// NetSeconds is msgs messages carrying bytes in all through one rank's
// network port: α per message plus the volume at bandwidth β.
func (c CostModel) NetSeconds(msgs, bytes int64) float64 {
	return float64(msgs)*c.NetLatency + float64(bytes)/c.NetBandwidth
}

// AllReduceSeconds is a ring AllReduce of the given byte volume over k
// ranks: 2(k-1) steps, each moving bytes/k.
func (c CostModel) AllReduceSeconds(bytes, k int) float64 {
	if k <= 1 {
		return 0
	}
	steps := float64(2 * (k - 1))
	return steps*c.NetLatency + steps*float64(bytes)/float64(k)/c.NetBandwidth
}
