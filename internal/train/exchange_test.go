package train

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/partition"
)

// randomPartitionings yields a spread of partitionings over random graphs
// and partitioners — the input space buildXPlans must be correct on.
func randomPartitionings(t *testing.T) []*partition.Partitioning {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var pts []*partition.Partitioning
	for trial := 0; trial < 6; trial++ {
		seed := rng.Int63()
		ds, err := datasets.Generate(datasets.Spec{
			Name:        fmt.Sprintf("xplan-prop-%d", trial),
			NumVertices: 150 + rng.Intn(400), AvgDegree: float64(3 + rng.Intn(14)),
			FeatDim: 4, NumClasses: 3, Communities: 2 + rng.Intn(4),
			IntraFrac: 0.5 + 0.4*rng.Float64(), Undirected: trial%2 == 0,
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		k := 2 + rng.Intn(7)
		var p partition.Partitioner = partition.Libra{Seed: seed}
		if trial%3 == 1 {
			p = partition.RandomEdge{Seed: seed}
		}
		pt, err := partition.Partition(ds.G, p, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, pt)
	}
	return pts
}

// TestXPlanSenderReceiverListsPairPositionally: for every (leaf, root) rank
// pair and bin, the sender's row list and the receiver's row list must have
// equal length and refer to the same global vertices position by position —
// the invariant that lets the exchange ship bare row blocks with no IDs on
// the wire, in both directions of the 1-level tree.
func TestXPlanSenderReceiverListsPairPositionally(t *testing.T) {
	for _, pt := range randomPartitionings(t) {
		for _, bins := range []int{1, 2, 3, 5, 17} {
			plans := buildXPlans(pt, bins)
			for a := 0; a < pt.K; a++ {
				for b := 0; b < pt.K; b++ {
					for bin := 0; bin < bins; bin++ {
						// Phase A: leaf a → root b.
						send, recv := plans[a].leafSend[bin][b], plans[b].rootRecv[bin][a]
						if len(send) != len(recv) {
							t.Fatalf("bins=%d bin=%d %d→%d: leafSend %d rows, rootRecv %d",
								bins, bin, a, b, len(send), len(recv))
						}
						for i := range send {
							ga := pt.Parts[a].GlobalID[send[i]]
							gb := pt.Parts[b].GlobalID[recv[i]]
							if ga != gb {
								t.Fatalf("bins=%d bin=%d %d→%d pos %d: leaf global %d vs root global %d",
									bins, bin, a, b, i, ga, gb)
							}
						}
						// Phase B: root b → leaf a.
						send, recv = plans[b].rootSend[bin][a], plans[a].leafRecv[bin][b]
						if len(send) != len(recv) {
							t.Fatalf("bins=%d bin=%d %d←%d: rootSend %d rows, leafRecv %d",
								bins, bin, a, b, len(send), len(recv))
						}
						for i := range send {
							gb := pt.Parts[b].GlobalID[send[i]]
							ga := pt.Parts[a].GlobalID[recv[i]]
							if ga != gb {
								t.Fatalf("bins=%d bin=%d %d←%d pos %d: root global %d vs leaf global %d",
									bins, bin, a, b, i, gb, ga)
							}
						}
					}
				}
			}
		}
	}
}

// TestXPlanEveryCloneInExactlyOneBin: each leaf clone of each split vertex
// must appear in exactly one (bin, root) slot of its partition's leafSend —
// sent once per delay cycle, never duplicated, never dropped.
func TestXPlanEveryCloneInExactlyOneBin(t *testing.T) {
	for _, pt := range randomPartitionings(t) {
		for _, bins := range []int{1, 3, 5} {
			plans := buildXPlans(pt, bins)
			// Count appearances of every (partition, local row) leaf clone.
			seen := map[[2]int32]int{}
			for p := 0; p < pt.K; p++ {
				for bin := 0; bin < bins; bin++ {
					for _, rows := range plans[p].leafSend[bin] {
						for _, row := range rows {
							seen[[2]int32{int32(p), row}]++
						}
					}
				}
			}
			want := map[[2]int32]int{}
			for _, sv := range pt.Splits {
				for _, leaf := range sv.Clones[1:] {
					want[[2]int32{leaf.Part, leaf.Local}]++
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("bins=%d: %d distinct clones planned, want %d", bins, len(seen), len(want))
			}
			for clone, n := range seen {
				if n != want[clone] {
					t.Fatalf("bins=%d: clone %v appears %d times, want %d", bins, clone, n, want[clone])
				}
			}
		}
	}
}

// TestXPlanBinsPartitionSplits: the bin assignment must partition
// pt.Splits — every split vertex lands in exactly one bin, all of its
// clone traffic shares that bin, and the union over bins covers the whole
// split set.
func TestXPlanBinsPartitionSplits(t *testing.T) {
	for _, pt := range randomPartitionings(t) {
		for _, bins := range []int{1, 2, 4, 7} {
			plans := buildXPlans(pt, bins)
			// Recover each split vertex's bin(s) from the planned traffic.
			binsOf := map[int32]map[int]bool{}
			for p := 0; p < pt.K; p++ {
				for bin := 0; bin < bins; bin++ {
					for _, rows := range plans[p].leafSend[bin] {
						for _, row := range rows {
							g := pt.Parts[p].GlobalID[row]
							if binsOf[g] == nil {
								binsOf[g] = map[int]bool{}
							}
							binsOf[g][bin] = true
						}
					}
				}
			}
			covered := 0
			for _, sv := range pt.Splits {
				bs := binsOf[sv.Global]
				if len(sv.Clones) < 2 {
					t.Fatalf("split vertex %d with %d clones", sv.Global, len(sv.Clones))
				}
				if len(bs) != 1 {
					t.Fatalf("bins=%d: split vertex %d spread over bins %v, want exactly one",
						bins, sv.Global, bs)
				}
				covered++
			}
			if covered != len(pt.Splits) || len(binsOf) != len(pt.Splits) {
				t.Fatalf("bins=%d: %d vertices with traffic, %d splits covered, want %d",
					bins, len(binsOf), covered, len(pt.Splits))
			}
		}
	}
}

// TestXPlanRootRowsIsRootRecvUnion: rootRows is exactly the sorted,
// duplicate-free union of a plan's rootRecv lists over bins and peers.
func TestXPlanRootRowsIsRootRecvUnion(t *testing.T) {
	for _, pt := range randomPartitionings(t) {
		for _, bins := range []int{1, 3} {
			for p, plan := range buildXPlans(pt, bins) {
				checkRootRows(t, fmt.Sprintf("k=%d bins=%d rank %d", pt.K, bins, p), plan)
			}
		}
	}
}

func checkRootRows(t *testing.T, what string, plan *xplan) {
	t.Helper()
	union := map[int32]bool{}
	for _, byPeer := range plan.rootRecv {
		for _, rows := range byPeer {
			for _, row := range rows {
				union[row] = true
			}
		}
	}
	if len(plan.rootRows) != len(union) {
		t.Fatalf("%s: %d root rows, rootRecv's union has %d", what, len(plan.rootRows), len(union))
	}
	for i, row := range plan.rootRows {
		if !union[row] || (i > 0 && row <= plan.rootRows[i-1]) {
			t.Fatalf("%s: rootRows[%d] = %d is not the next row of rootRecv's sorted union", what, i, row)
		}
	}
}

// TestStaleFoldRootRowsOnly pins what makes applyStale's root-rows-only
// fold exact: over a cd-r run at k = 2 and 4, every row of every layer's
// remoteAdd outside the plan's rootRows stays +0 (bits 0) after every
// epoch, so adding it — to sums from +0, which are never −0 — changed
// nothing. Some root row must be nonzero by the end, or the run folded
// nothing and the check would be empty.
func TestStaleFoldRootRowsOnly(t *testing.T) {
	ds := testDataset(t)
	for _, k := range []int{2, 4} {
		cfg := DistConfig{
			Model: smallModel(), NumPartitions: k, Algo: AlgoCDR,
			Delay: 2, Epochs: 5, LR: 0.05, UseAdam: true, Seed: 9,
		}
		su, err := newDistSetup(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eps := comm.NewProcFabric(k)
		worlds, ranks, err := su.newRanks(eps)
		if err != nil {
			t.Fatal(err)
		}
		bad := make([]string, k)
		folded := make([]bool, k)
		comm.RunRanks(worlds, func(w *comm.World) {
			r := ranks[w.Self()]
			isRoot := make([]bool, r.part.G.NumVertices)
			for _, row := range r.plan.rootRows {
				isRoot[row] = true
			}
			for e := 0; e < cfg.Epochs && bad[r.id] == ""; e++ {
				r.runEpoch(e)
				for l, add := range r.remoteAdd {
					for v := 0; v < add.Rows; v++ {
						for j, x := range add.Row(v) {
							switch {
							case !isRoot[v] && math.Float32bits(x) != 0:
								bad[r.id] = fmt.Sprintf("epoch %d layer %d: non-root row %d col %d holds %#08x",
									e, l, v, j, math.Float32bits(x))
							case isRoot[v] && x != 0:
								folded[r.id] = true
							}
						}
					}
				}
			}
		})
		comm.CloseAll(eps)
		anyFolded := false
		for rank, plan := range su.plans {
			checkRootRows(t, fmt.Sprintf("k=%d rank %d", k, rank), plan)
			if bad[rank] != "" {
				t.Errorf("k=%d rank %d: %s", k, rank, bad[rank])
			}
			anyFolded = anyFolded || folded[rank]
		}
		if !anyFolded {
			t.Errorf("k=%d: no rank folded a nonzero stale partial", k)
		}
	}
}
