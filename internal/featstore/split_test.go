package featstore

import (
	"math/rand"
	"testing"
)

// TestSplitByOwnerPartitionsEveryPosition: the owner split is a partition
// of frontier positions — every position lands in exactly the shard that
// owns its vertex, in frontier order.
func TestSplitByOwnerPartitionsEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, k = 60, 4
	owners := make([]int32, n)
	for v := range owners {
		owners[v] = int32(rng.Intn(k))
	}
	frontier := make([]int32, 40)
	for i := range frontier {
		frontier[i] = int32(rng.Intn(n))
	}
	split := splitByOwner(frontier, owners, k)
	if len(split) != k {
		t.Fatalf("split has %d shards, want %d", len(split), k)
	}
	total := 0
	for p, pos := range split {
		prev := int32(-1)
		for _, i := range pos {
			if i <= prev {
				t.Fatalf("shard %d positions out of frontier order", p)
			}
			prev = i
			if owners[frontier[i]] != int32(p) {
				t.Fatalf("position %d (vertex %d, owner %d) landed in shard %d",
					i, frontier[i], owners[frontier[i]], p)
			}
		}
		total += len(pos)
	}
	if total != len(frontier) {
		t.Fatalf("split covers %d of %d positions", total, len(frontier))
	}
}

// TestSplitByOwnerRecoversPermutation: concatenating the per-owner position
// lists in owner order yields a permutation of the frontier positions —
// including when some shards own nothing and when one shard owns everything.
func TestSplitByOwnerRecoversPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct {
		name    string
		n, k    int
		ownerOf func(v int) int32
	}{
		{"random", 80, 5, func(v int) int32 { return int32(rng.Intn(5)) }},
		{"all-one-owner", 80, 5, func(v int) int32 { return 3 }},
		{"empty-middle-shard", 80, 4, func(v int) int32 {
			// Shard 2 owns no vertex at all.
			o := int32(v % 4)
			if o == 2 {
				o = 1
			}
			return o
		}},
		{"empty-frontier", 10, 3, func(v int) int32 { return int32(v % 3) }},
	}
	for _, tc := range cases {
		owners := make([]int32, tc.n)
		for v := range owners {
			owners[v] = tc.ownerOf(v)
		}
		frontierLen := 50
		if tc.name == "empty-frontier" {
			frontierLen = 0
		}
		frontier := make([]int32, frontierLen)
		for i := range frontier {
			frontier[i] = int32(rng.Intn(tc.n)) // duplicates allowed
		}
		split := splitByOwner(frontier, owners, tc.k)
		if len(split) != tc.k {
			t.Fatalf("%s: %d shards, want %d", tc.name, len(split), tc.k)
		}
		var concat []int32
		for _, pos := range split {
			concat = append(concat, pos...)
		}
		if len(concat) != len(frontier) {
			t.Fatalf("%s: concatenated split has %d positions, frontier has %d",
				tc.name, len(concat), len(frontier))
		}
		seen := make([]bool, len(frontier))
		for _, i := range concat {
			if i < 0 || int(i) >= len(frontier) {
				t.Fatalf("%s: position %d outside frontier", tc.name, i)
			}
			if seen[i] {
				t.Fatalf("%s: position %d appears twice", tc.name, i)
			}
			seen[i] = true
		}
	}
}
