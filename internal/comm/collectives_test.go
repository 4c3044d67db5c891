package comm

import "testing"

func TestBroadcast(t *testing.T) {
	results := make([][]float32, 5)
	RunInProcess(5, func(w *World) {
		rank := w.Self()
		data := []float32{float32(rank), float32(rank * 2)}
		if rank == 3 {
			data = []float32{100, 200}
		}
		w.Broadcast(3, data)
		results[rank] = data
	})
	for rank, got := range results {
		if got[0] != 100 || got[1] != 200 {
			t.Fatalf("rank %d received %v, want [100 200]", rank, got)
		}
	}
}

func TestBroadcastRepeated(t *testing.T) {
	RunInProcess(3, func(w *World) {
		rank := w.Self()
		for iter := 0; iter < 10; iter++ {
			root := iter % 3
			data := []float32{float32(rank + 1000)}
			if rank == root {
				data[0] = float32(iter)
			}
			w.Broadcast(root, data)
			if data[0] != float32(iter) {
				t.Errorf("iter %d rank %d: got %v", iter, rank, data[0])
			}
		}
	})
}

func TestAllGatherOrderAndContent(t *testing.T) {
	results := make([][]float32, 4)
	RunInProcess(4, func(w *World) {
		rank := w.Self()
		// rank r contributes r+1 copies of float32(r).
		data := make([]float32, rank+1)
		for i := range data {
			data[i] = float32(rank)
		}
		results[rank] = w.AllGather(data)
	})
	want := []float32{0, 1, 1, 2, 2, 2, 3, 3, 3, 3}
	for rank, got := range results {
		if len(got) != len(want) {
			t.Fatalf("rank %d: length %d, want %d", rank, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: got %v want %v", rank, got, want)
			}
		}
	}
}
