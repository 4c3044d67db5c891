package featstore

import (
	"math"
	"strings"
	"testing"

	"distgnn/internal/comm"
	"distgnn/internal/obs"
)

// TestGatherSplitTraced pins the cross-rank attribution contract: a traced
// gather records one halo_rtt span per peer fetched, the owner ranks record
// "halo" trace entries under the caller's trace ID, and the gathered bits
// match the untraced path exactly.
func TestGatherSplitTraced(t *testing.T) {
	const n, dim, shards = 40, 4, 2
	feats := testMatrix(n, dim, 3)
	owners := ownersRoundRobin(n, shards)
	eps := comm.NewProcFabric(shards)
	defer comm.CloseAll(eps)
	tracers := make([]*obs.Tracer, shards)
	stores := make([]*Sharded, shards)
	for r := range stores {
		tracers[r] = obs.NewTracer(obs.TracerConfig{Role: "server", Rank: r})
		st, err := NewSharded(ShardedConfig{
			Transport: eps[r],
			Owners:    owners, Features: feats,
			Tracer: tracers[r],
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

	frontier := []int32{0, 1, 2, 3, 4, 5}
	id := obs.NewTraceID()
	tc := obs.NewTraceCtx(id)
	split := SplitByOwner(frontier, owners, shards)
	x, err := stores[0].GatherSplit(frontier, split, tc)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range frontier {
		for j := 0; j < dim; j++ {
			if math.Float32bits(x.Row(i)[j]) != math.Float32bits(feats.Row(int(v))[j]) {
				t.Fatalf("traced gather row %d col %d diverges from source", i, j)
			}
		}
	}

	var rtt int
	for _, sp := range tc.Spans() {
		if strings.HasPrefix(sp.Name, "halo_rtt_rank") {
			rtt++
			if sp.DurUs < 0 {
				t.Fatalf("span %q has negative duration", sp.Name)
			}
		}
	}
	if rtt != 1 {
		t.Fatalf("caller recorded %d halo_rtt spans, want 1 (one peer)", rtt)
	}

	// The owning peer (rank 1) must have recorded the served fetch under the
	// caller's trace ID.
	recent := tracers[1].Recent(16)
	want := obs.FormatTraceID(id)
	found := false
	for _, rec := range recent {
		if rec.TraceID == want {
			found = true
			if rec.Endpoint != "halo_fetch" || rec.Peer != 0 || rec.Rank != 1 {
				t.Fatalf("halo record misattributed: %+v", rec)
			}
		}
	}
	if !found {
		t.Fatalf("peer tracer has no record for trace %s: %+v", want, recent)
	}

	// Untraced gathers through the same stores must not mint records.
	before := len(tracers[1].Recent(1 << 10))
	if _, err := stores[0].Gather(frontier); err != nil {
		t.Fatal(err)
	}
	if after := len(tracers[1].Recent(1 << 10)); after != before {
		t.Fatalf("untraced gather grew the peer ring from %d to %d", before, after)
	}
}
