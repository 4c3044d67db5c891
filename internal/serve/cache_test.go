package serve

import (
	"fmt"
	"sync"
	"testing"

	"distgnn/internal/featstore"
)

func TestCacheDisabledIsNil(t *testing.T) {
	c := featstore.NewCache[int32, []float32](0, 0)
	if c != nil {
		t.Fatal("zero budget must return the disabled (nil) cache")
	}
	// nil-receiver paths must be safe no-ops.
	if _, ok := c.Get(1); ok {
		t.Fatal("disabled cache cannot hit")
	}
	c.Put(1, []float32{1}, 4)
	if st := c.Stats(); st != (featstore.CacheStats{}) {
		t.Fatalf("disabled stats %+v", st)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := featstore.NewCache[int32, string](1<<16, 4)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(1, "a", 100)
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("get: %v %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.UsedBytes != 100+featstore.CacheEntryOverhead {
		t.Fatalf("used %d", st.UsedBytes)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", st.HitRate())
	}
}

func TestCacheBudgetRespectedUnderEviction(t *testing.T) {
	c := featstore.NewCache[int, int](4096, 4)
	for k := 0; k < 1000; k++ {
		c.Put(k, k, 100)
	}
	st := c.Stats()
	if st.UsedBytes > st.CapBytes {
		t.Fatalf("used %d exceeds budget %d", st.UsedBytes, st.CapBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions under pressure")
	}
	// Some recent key should be resident, and its value intact.
	found := false
	for k := 990; k < 1000; k++ {
		if v, ok := c.Get(k); ok {
			if v != k {
				t.Fatalf("key %d holds %d", k, v)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no recent key resident")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := featstore.NewCache[int, []float32](1<<20, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (w*2000 + i) % 512
				if v, ok := c.Get(k); ok {
					if int(v[0]) != k {
						panic(fmt.Sprintf("key %d holds %v", k, v[0]))
					}
					continue
				}
				c.Put(k, []float32{float32(k)}, 4)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*2000 {
		t.Fatalf("accesses %d", st.Hits+st.Misses)
	}
}

// TestCacheBudgetSplitExact pins the shard-split arithmetic: the per-shard
// capacities must sum to exactly the requested byte budget (the division
// remainder goes to shard 0), with the arithmetic in int64 so budgets
// beyond 2 GiB survive 32-bit platforms. Pre-fix, int truncation dropped
// up to shards−1 remainder bytes silently.
func TestCacheBudgetSplitExact(t *testing.T) {
	for _, budget := range []int64{1, 7, 1023, 1<<20 + 13, 3<<20 + 5, 64<<20 + 63} {
		c := featstore.NewCache[int32, []float32](budget, 0)
		if c == nil {
			t.Fatalf("budget %d: cache disabled", budget)
		}
		if got := c.Stats().CapBytes; got != budget {
			t.Fatalf("budget %d: shard capacities sum to %d", budget, got)
		}
	}
	// Explicit shard counts, including non-power-of-two requests that round
	// up internally.
	for _, shards := range []int{1, 3, 16} {
		const budget = 1<<20 + 7
		c := featstore.NewCache[int32, []float32](budget, shards)
		if got := c.Stats().CapBytes; got != budget {
			t.Fatalf("shards %d: shard capacities sum to %d, want %d", shards, got, budget)
		}
	}
}

// TestCacheResetKeepsCapacityDropsEntries pins Reset (the post-/reload
// invalidation): entries vanish, capacity and cumulative counters survive.
func TestCacheResetKeepsCapacityDropsEntries(t *testing.T) {
	c := featstore.NewCache[int32, []float32](1<<20, 4)
	for i := int32(0); i < 64; i++ {
		c.Put(i, []float32{float32(i)}, 4)
	}
	if _, ok := c.Get(7); !ok {
		t.Fatal("warm entry missing before Reset")
	}
	before := c.Stats()
	c.Reset()
	after := c.Stats()
	if after.Entries != 0 || after.UsedBytes != 0 {
		t.Fatalf("Reset left %d entries / %d bytes", after.Entries, after.UsedBytes)
	}
	if after.CapBytes != before.CapBytes {
		t.Fatalf("Reset changed capacity %d → %d", before.CapBytes, after.CapBytes)
	}
	if after.Puts != before.Puts {
		t.Fatalf("Reset lost cumulative counters: %+v vs %+v", after, before)
	}
	if _, ok := c.Get(7); ok {
		t.Fatal("entry survived Reset")
	}
	var nilCache *featstore.Cache[int32, []float32]
	nilCache.Reset() // disabled cache: must not panic
}
