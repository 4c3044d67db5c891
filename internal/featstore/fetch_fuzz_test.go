package featstore

import (
	"encoding/binary"
	"math"
	"testing"

	"distgnn/internal/comm"
	"distgnn/internal/obs"
)

// int32Words packs ids little-endian, four bytes each — the fuzz corpus
// form of a fetch request.
func int32Words(ids ...int32) []byte {
	b := make([]byte, 0, 4*len(ids))
	for _, v := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// FuzzHandleFetch feeds arbitrary request words to the halo responder, as a
// malformed or hostile peer could. It must never panic: a frame led by the
// update opcode errors while no update handler is registered, and any other
// frame either errors or returns exactly len(ids)×featDim floats, row k
// the owned feature row of ids[k].
func FuzzHandleFetch(f *testing.F) {
	const n, dim, shards = 16, 3, 2
	feats := testMatrix(n, dim, 5)
	owners := ownersRoundRobin(n, shards)
	eps := comm.NewProcFabric(shards)
	f.Cleanup(func() { comm.CloseAll(eps) })
	st, err := NewSharded(ShardedConfig{
		Transport: eps[0], Owners: owners, Features: feats,
		Tracer: obs.NewTracer(obs.TracerConfig{Role: "server"}),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(st.Close)

	f.Add(uint64(0), []byte{})
	f.Add(uint64(0), int32Words(0, 2, 14, 2))
	f.Add(uint64(7), int32Words(4))
	f.Add(uint64(0), int32Words(1))                // owned by rank 1
	f.Add(uint64(0), int32Words(n))                // past the last vertex
	f.Add(uint64(0), int32Words(-1, 0))            // negative id
	f.Add(uint64(0), int32Words(updateOpcode, 3))  // update frame, no handler
	f.Add(uint64(0), int32Words(0, updateOpcode))  // opcode word not leading
	f.Add(uint64(0), []byte{1, 2, 3, 4, 5})        // trailing partial word
	f.Add(uint64(0), int32Words(math.MaxInt32, 0)) // far out of range

	f.Fuzz(func(t *testing.T, trace uint64, data []byte) {
		ids := make([]int32, len(data)/4)
		for i := range ids {
			ids[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		out, err := st.handleFetch(1, trace, comm.Int32sToF32(ids))
		if len(ids) > 0 && ids[0] == updateOpcode {
			if err == nil {
				t.Fatalf("update frame answered with no handler registered: %v", out)
			}
			return
		}
		if err != nil {
			return
		}
		if len(out) != len(ids)*dim {
			t.Fatalf("%d ids answered with %d floats, want %d", len(ids), len(out), len(ids)*dim)
		}
		for k, v := range ids {
			if owners[v] != 0 {
				t.Fatalf("answered for vertex %d, owned by rank %d", v, owners[v])
			}
			for j := 0; j < dim; j++ {
				if math.Float32bits(out[k*dim+j]) != math.Float32bits(feats.Row(int(v))[j]) {
					t.Fatalf("row %d (vertex %d) col %d is not the owned feature", k, v, j)
				}
			}
		}
	})
}
