// Package cachesim models the CPU cache behaviour of the aggregation
// primitive. Table 3 and Figures 3–4 of the paper are statements about the
// AP's memory access stream — feature-vector reuse and bytes moved to/from
// DRAM as a function of the cache-block count nB. This package replays the
// exact access stream of the blocked kernel (Alg. 2) through an LRU cache
// and reports those counters, standing in for the hardware performance
// counters the authors used.
//
// The eviction machinery itself lives in the generic Core so the online
// serving path (internal/serve) shares one LRU implementation with the
// simulator.
package cachesim

// LRU is a fully associative least-recently-used cache with a byte-capacity
// budget and variable-size entries (one entry per feature vector). It
// tracks residency only — the simulator never stores payloads.
type LRU struct {
	core *Core[uint64, struct{}]
}

// NewLRU creates a cache holding up to capacityBytes of entries.
func NewLRU(capacityBytes int) *LRU {
	return &LRU{core: NewCore[uint64, struct{}](capacityBytes)}
}

// Access touches key, inserting it with the given size on a miss and
// evicting LRU entries to fit. Returns whether the access hit. Entries
// larger than the whole cache are never resident (every access misses).
func (c *LRU) Access(key uint64, size int) bool {
	if _, ok := c.core.Get(key); ok {
		return true
	}
	c.core.Put(key, struct{}{}, size)
	return false
}
