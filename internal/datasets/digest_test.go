package datasets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"distgnn/internal/graph"
)

// generateDigests pins every registered dataset bit for bit: at scale 0.05
// with seeds 1–3, the SHA-256 over the edges in ID order, the CSR's
// Indptr/Indices, the transpose's Indptr/Indices and its edges in ID order,
// the features' float bits, labels, communities and the three splits.
// EdgeIDs enter only through the ID-ordered edge lists: parallel edges are
// interchangeable, so which of two identical edges sits first in a neighbor
// list is not an observable of the dataset.
var generateDigests = map[string]string{
	"am-sim/1":            "9ad7397251c3a09989b9a419e82eef932f04fdb28c22d9b9457829884727f86c",
	"am-sim/2":            "dcbb9996214a32cf007dead2877ad42471871cf3a47a0e2f5c347d3afab79296",
	"am-sim/3":            "4e2724840db9eec2ad653d1c7d45b2a5bca03967b1caa9fabe75122d96a7baac",
	"ogbn-papers-sim/1":   "ab3a8d6981d2901147ead58eb074e23eb2a63f81d92817a6d30b0af81162817f",
	"ogbn-papers-sim/2":   "3f6addc69d161c95787ec1055c271af8213f993cf6c62c747dce0974762e9ab3",
	"ogbn-papers-sim/3":   "acbb5537b196f46475809c1cb2acaa21a4852d7d8a3d21f8d78589aca995c9d3",
	"ogbn-products-sim/1": "00e42dbb666bffa96088ac3cb03979c77dd3ab0128e56804df67467071eae63e",
	"ogbn-products-sim/2": "89dc90db0cc5b50612f50086f283e1ee1b83003d5f2a22b8e0114087e769ee5e",
	"ogbn-products-sim/3": "fc3ed5a3c797c9152ec05e022712b1229d35dae6958e9f0be6c85cdec13976f4",
	"proteins-sim/1":      "45f1a8b3d16acad8d54c636f47b73e78e3f97a382c4fc0d8d75e1a2e1633017b",
	"proteins-sim/2":      "6b18645ed4666fffd1d08bb6dfa4c412abafd5f1ed88baafef9d5904874ef6a7",
	"proteins-sim/3":      "e8c41bc5c37f672e7f86e39cd50d9d89c52f9b2c012ea24c28544de5c6022af1",
	"reddit-sim/1":        "15ed3c97ff3ccf5bc24e33c39ebaab24bf057e4b91f360644acab1585e5e917a",
	"reddit-sim/2":        "199cd8f4e71088bb4d78de52d095a3c228250a0ebe62221d5e83ae60eba423be",
	"reddit-sim/3":        "57ecdb20d0b837011f32c3be5075b77a249ac8117b37eed6ac30e98421a42513",
}

// streamDigests pins EdgeStream over 1,000 vertices and 500 events, seeds 1–3:
// the SHA-256 over each event's arrival offset, endpoints and burst flag.
var streamDigests = map[int64]string{
	1: "af4050722e193f0575a8b60fdb8b39be10697ada05d174d2c31b88f39657a9f6",
	2: "bff238ca8095b1704ca09de511abd58c90613a8c1bda86922dc8440813548442",
	3: "28a1fbba258e192fdbe06cf7c7f55ce7c1030f9249888731ecf1035258fd63ef",
}

func writeInt32s(h hash.Hash, xs []int32) {
	_ = binary.Write(h, binary.LittleEndian, xs)
}

func writeEdges(h hash.Hash, edges []graph.Edge) {
	for _, e := range edges {
		writeInt32s(h, []int32{e.Src, e.Dst})
	}
}

func datasetDigest(d *Dataset) string {
	h := sha256.New()
	writeEdges(h, d.G.Edges())
	writeInt32s(h, d.G.Indptr)
	writeInt32s(h, d.G.Indices)
	rev := d.G.Reverse()
	writeEdges(h, rev.Edges())
	writeInt32s(h, rev.Indptr)
	writeInt32s(h, rev.Indices)
	for _, x := range d.Features.Data {
		_ = binary.Write(h, binary.LittleEndian, math.Float32bits(x))
	}
	for _, xs := range [][]int32{d.Labels, d.Community, d.TrainIdx, d.ValIdx, d.TestIdx} {
		writeInt32s(h, xs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGenerateDigests(t *testing.T) {
	for _, name := range Names() {
		for seed := int64(1); seed <= 3; seed++ {
			spec, err := SpecFor(name, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			spec.Seed = seed
			key := fmt.Sprintf("%s/%d", name, seed)
			if got, want := datasetDigest(MustGenerate(spec)), generateDigests[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	}
}

func TestEdgeStreamDigests(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		events, err := EdgeStream(StreamConfig{NumVertices: 1000, Events: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, ev := range events {
			burst := int64(0)
			if ev.Burst {
				burst = 1
			}
			_ = binary.Write(h, binary.LittleEndian, []int64{int64(ev.At), int64(ev.Edge.Src), int64(ev.Edge.Dst), burst})
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), streamDigests[seed]; got != want {
			t.Errorf("seed %d: digest %s, want %s", seed, got, want)
		}
	}
}
