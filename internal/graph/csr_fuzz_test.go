package graph

import (
	"fmt"
	"testing"
)

// FuzzNewCSR decodes an edge list from the input bytes and checks NewCSR
// against the comparison-sort reference: on in-range edges every field
// must match, and an out-of-range endpoint must fail with the error naming
// the first bad edge. The first byte sizes the graph (n = 1..32); each
// following byte pair is one edge, where 0xFF decodes to -1, 0xFE to n and
// any other byte to itself mod n.
func FuzzNewCSR(f *testing.F) {
	f.Add([]byte{0x03, 0x00, 0x01, 0x01, 0x02, 0x02, 0x00, 0x00, 0x02})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x07, 0x05, 0x01, 0x05, 0x01, 0x03, 0x01, 0x05, 0x01})
	f.Add([]byte{0x04, 0x01, 0xFE, 0xFF, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%32)
		endpoint := func(b byte) int32 {
			switch b {
			case 0xFF:
				return -1
			case 0xFE:
				return int32(n)
			}
			return int32(int(b) % n)
		}
		var edges []Edge
		bad := -1
		for i := 1; i+1 < len(data); i += 2 {
			e := Edge{Src: endpoint(data[i]), Dst: endpoint(data[i+1])}
			if bad < 0 && (e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n) {
				bad = len(edges)
			}
			edges = append(edges, e)
		}
		if bad < 0 {
			checkAgainstReference(t, n, edges)
			return
		}
		e := edges[bad]
		want := fmt.Sprintf("graph: edge %d (%d→%d) out of range [0,%d)", bad, e.Src, e.Dst, n)
		if _, err := NewCSR(n, edges); err == nil || err.Error() != want {
			t.Fatalf("error %v, want %q", err, want)
		}
	})
}
