package featstore

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"distgnn/internal/comm"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

func testMatrix(rows, cols int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// Local gathers must return the backing matrix's exact bits, cached or not.
func TestLocalGatherExact(t *testing.T) {
	feats := testMatrix(50, 8, 1)
	frontier := []int32{3, 0, 49, 3, 17}
	for _, cached := range []bool{false, true} {
		var c *Cache[int32, []float32]
		if cached {
			c = NewCache[int32, []float32](1<<20, 0)
		}
		lf := NewLocal(spmm.RowsOf(feats), c)
		for pass := 0; pass < 2; pass++ { // second pass hits the cache
			x, err := lf.Gather(frontier)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range frontier {
				for j := 0; j < 8; j++ {
					got, want := x.Row(i)[j], feats.Row(int(v))[j]
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("cached=%v pass=%d row %d col %d: %v != %v", cached, pass, i, j, got, want)
					}
				}
			}
		}
	}
}

// ownersRoundRobin assigns vertex v to shard v%k — a worst-case split where
// every gather touches every shard.
func ownersRoundRobin(n, k int) []int32 {
	out := make([]int32, n)
	for v := range out {
		out[v] = int32(v % k)
	}
	return out
}

// A sharded gather must return the same fp32 bits as reading the full
// matrix directly, from every rank, with and without the halo cache.
func TestShardedGatherExact(t *testing.T) {
	const n, dim, shards = 60, 6, 4
	feats := testMatrix(n, dim, 2)
	owners := ownersRoundRobin(n, shards)

	for _, cacheBytes := range []int64{0, 1 << 20} {
		// Fresh fabric per arm: ReqRep responder goroutines outlive Close
		// (they exit with the transport), so reusing one fabric would let
		// the previous arm's stores answer this arm's fetches.
		eps := comm.NewProcFabric(shards)
		stores := make([]*Sharded, shards)
		for r := range stores {
			st, err := NewSharded(ShardedConfig{
				Transport: eps[r],
				Owners:    owners, Features: feats, CacheBytes: cacheBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			stores[r] = st
		}

		frontier := []int32{5, 0, 59, 13, 5, 42, 1, 2, 3}
		var wg sync.WaitGroup
		errs := make([]error, shards)
		for r, st := range stores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; pass < 2; pass++ { // second pass exercises the halo cache
					x, err := st.Gather(frontier, nil)
					if err != nil {
						errs[r] = err
						return
					}
					for i, v := range frontier {
						for j := 0; j < dim; j++ {
							if math.Float32bits(x.Row(i)[j]) != math.Float32bits(feats.Row(int(v))[j]) {
								t.Errorf("rank %d pass %d: row %d col %d mismatch", r, pass, i, j)
								return
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}

		st0 := stores[0].Stats()
		if st0.OwnedVertices != n/shards {
			t.Fatalf("rank 0 owns %d vertices, want %d", st0.OwnedVertices, n/shards)
		}
		if cacheBytes > 0 {
			if st0.HaloHits == 0 {
				t.Fatalf("second gather pass produced no halo cache hits: %+v", st0)
			}
		} else if st0.HaloHits != 0 {
			t.Fatalf("disabled cache recorded halo hits: %+v", st0)
		}
		// Every halo miss is one row fetched from its owner.
		if st0.HaloMisses != st0.HaloFetchedVertices {
			t.Fatalf("%d halo misses but %d rows fetched: %+v", st0.HaloMisses, st0.HaloFetchedVertices, st0)
		}
		if st0.PeerServedFetches == 0 {
			t.Fatalf("rank 0 served no peer fetches: %+v", st0)
		}
		for _, st := range stores {
			st.Close()
		}
		comm.CloseAll(eps)
	}
}

// A fetch for a vertex the target rank does not own must error, not return
// garbage rows.
func TestShardedGatherRejectsWrongOwner(t *testing.T) {
	const n, dim, shards = 20, 4, 2
	feats := testMatrix(n, dim, 3)
	owners := ownersRoundRobin(n, shards)
	eps := comm.NewProcFabric(shards)
	defer comm.CloseAll(eps)
	// Rank 0 is told rank 1 owns vertex 0; rank 1 (which owns odd IDs)
	// holds the true table.
	badOwners := append([]int32(nil), owners...)
	badOwners[0] = 1
	stores := make([]*Sharded, shards)
	for r, table := range [][]int32{badOwners, owners} {
		st, err := NewSharded(ShardedConfig{
			Transport: eps[r],
			Owners:    table, Features: feats,
		})
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = st
		defer st.Close()
	}
	if _, err := stores[0].Gather([]int32{0}, nil); err == nil {
		t.Fatal("gather with a wrong owner table succeeded")
	}
}

func TestNewShardedValidation(t *testing.T) {
	feats := testMatrix(10, 2, 4)
	eps := comm.NewProcFabric(2)
	defer comm.CloseAll(eps)
	owners := ownersRoundRobin(10, 2)
	cases := []ShardedConfig{
		{Owners: owners, Features: feats},
		{Transport: eps[0], Owners: owners[:5], Features: feats},
		{Transport: eps[0], Owners: owners},
		{Transport: eps[0], Owners: ownersRoundRobin(10, 3), Features: feats},
	}
	for i, cfg := range cases {
		if _, err := NewSharded(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
