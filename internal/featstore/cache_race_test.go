package featstore

import (
	"sync"
	"testing"

	"distgnn/internal/comm"
)

// TestCacheCountersReconcileUnderRace hammers one Cache from many
// goroutines with a working set far above capacity and then checks the
// counters reconcile exactly: every Get is a hit or a miss, every Put is
// counted, and entries plus evictions never exceed puts. Run under -race
// this also exercises the shard-lock discipline of the hot path.
func TestCacheCountersReconcileUnderRace(t *testing.T) {
	const (
		goroutines = 8
		opsPerG    = 2000
		keySpace   = 512
	)
	// Budget for ~32 entries so eviction churn is guaranteed.
	c := NewCache[int32, []float32](32*(64+CacheEntryOverhead), 4)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Deterministic per-goroutine walk; overlapping key ranges so
			// goroutines contend on the same cache shards.
			key := int32(g * 37)
			for i := 0; i < opsPerG; i++ {
				key = (key*larger + 17) % keySpace
				if _, ok := c.Get(key); !ok {
					c.Put(key, make([]float32, 16), 64)
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	totalGets := int64(goroutines * opsPerG)
	if st.Hits+st.Misses != totalGets {
		t.Fatalf("hits %d + misses %d = %d, want %d gets",
			st.Hits, st.Misses, st.Hits+st.Misses, totalGets)
	}
	// Each miss triggered exactly one Put in the loop above.
	if st.Puts != st.Misses {
		t.Fatalf("puts %d != misses %d", st.Puts, st.Misses)
	}
	if int64(st.Entries)+st.Evictions > st.Puts {
		t.Fatalf("entries %d + evictions %d exceed puts %d",
			st.Entries, st.Evictions, st.Puts)
	}
	if st.Evictions == 0 {
		t.Fatalf("working set %d× capacity produced no evictions: %+v", keySpace/32, st)
	}
	if st.UsedBytes > st.CapBytes {
		t.Fatalf("used %d exceeds capacity %d", st.UsedBytes, st.CapBytes)
	}
}

const larger = 31 // multiplier for the key walk above

// TestShardedGatherCountersReconcileUnderRace runs concurrent gathers on
// every rank of a sharded store fleet and checks the halo counters
// reconcile: every halo position is a hit or a miss, each miss maps to one
// fetched vertex and one cache put, and the fleet-wide fetched totals equal
// the fleet-wide served totals (vertices and bytes).
func TestShardedGatherCountersReconcileUnderRace(t *testing.T) {
	const (
		n, dim, shards  = 64, 8, 4
		gathersPerG     = 25
		goroutinesPerSt = 3
	)
	feats := testMatrix(n, dim, 7)
	owners := ownersRoundRobin(n, shards)
	eps := comm.NewProcFabric(shards)
	defer comm.CloseAll(eps)
	stores := make([]*Sharded, shards)
	for r := range stores {
		st, err := NewSharded(ShardedConfig{
			Transport: eps[r],
			Owners:    owners, Features: feats, CacheBytes: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = st
	}
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()

	frontier := []int32{0, 1, 2, 3, 17, 33, 63, 5, 5, 40}
	haloPos := make([]int64, shards) // halo positions per gather, by rank
	for r := range haloPos {
		for _, v := range frontier {
			if owners[v] != int32(r) {
				haloPos[r]++
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, shards*goroutinesPerSt)
	for r, st := range stores {
		for g := 0; g < goroutinesPerSt; g++ {
			wg.Add(1)
			go func(slot int, st *Sharded) {
				defer wg.Done()
				for i := 0; i < gathersPerG; i++ {
					if _, err := st.Gather(frontier, nil); err != nil {
						errs[slot] = err
						return
					}
				}
			}(r*goroutinesPerSt+g, st)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var fetchedVerts, servedVerts, fetchedBytes, servedBytes int64
	for r, st := range stores {
		s := st.Stats()
		wantLookups := haloPos[r] * gathersPerG * goroutinesPerSt
		if s.HaloHits+s.HaloMisses != wantLookups {
			t.Fatalf("rank %d: hits %d + misses %d != %d halo lookups",
				r, s.HaloHits, s.HaloMisses, wantLookups)
		}
		// Every miss is fetched once and put into the remote cache once.
		if s.HaloFetchedVertices != s.HaloMisses {
			t.Fatalf("rank %d: fetched %d vertices for %d misses",
				r, s.HaloFetchedVertices, s.HaloMisses)
		}
		if s.RemoteCache.Puts != s.HaloMisses {
			t.Fatalf("rank %d: cache puts %d != halo misses %d",
				r, s.RemoteCache.Puts, s.HaloMisses)
		}
		if s.RemoteCache.Hits != s.HaloHits || s.RemoteCache.Misses != s.HaloMisses {
			t.Fatalf("rank %d: cache counters %d/%d diverge from halo counters %d/%d",
				r, s.RemoteCache.Hits, s.RemoteCache.Misses, s.HaloHits, s.HaloMisses)
		}
		if s.HaloFetchedBytes != 4*int64(dim)*s.HaloFetchedVertices {
			t.Fatalf("rank %d: fetched bytes %d for %d vertices × %d features",
				r, s.HaloFetchedBytes, s.HaloFetchedVertices, dim)
		}
		fetchedVerts += s.HaloFetchedVertices
		servedVerts += s.PeerServedVertices
		fetchedBytes += s.HaloFetchedBytes
		servedBytes += s.PeerServedBytes
	}
	if fetchedVerts != servedVerts {
		t.Fatalf("fleet fetched %d vertices but served %d", fetchedVerts, servedVerts)
	}
	if fetchedBytes != servedBytes {
		t.Fatalf("fleet fetched %d bytes but served %d", fetchedBytes, servedBytes)
	}
	if fetchedVerts == 0 {
		t.Fatal("round-robin owners produced no halo traffic")
	}
}
