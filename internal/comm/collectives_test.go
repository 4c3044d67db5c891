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

func TestReduceScatterSum(t *testing.T) {
	const n = 4
	results := make([][]float32, n)
	RunInProcess(n, func(w *World) {
		rank := w.Self()
		// Every rank contributes [rank, rank, ..., rank] of length 2n;
		// chunk sums are Σranks = 6 per element.
		data := make([]float32, 2*n)
		for i := range data {
			data[i] = float32(rank)
		}
		results[rank] = w.ReduceScatterSum(data)
	})
	for rank, got := range results {
		if len(got) != 2 {
			t.Fatalf("rank %d: chunk length %d", rank, len(got))
		}
		for _, v := range got {
			if v != 6 {
				t.Fatalf("rank %d: got %v want 6", rank, got)
			}
		}
	}
}

func TestReduceScatterThenAllGatherEqualsAllReduce(t *testing.T) {
	// The classic identity: reduce-scatter + all-gather == all-reduce.
	const n = 3
	inputs := [][]float32{
		{1, 2, 3, 4, 5, 6},
		{10, 20, 30, 40, 50, 60},
		{100, 200, 300, 400, 500, 600},
	}
	viaAR := make([][]float32, n)
	viaRS := make([][]float32, n)
	RunInProcess(n, func(w *World) {
		rank := w.Self()
		a := append([]float32(nil), inputs[rank]...)
		w.AllReduceSum(a)
		viaAR[rank] = a

		b := append([]float32(nil), inputs[rank]...)
		chunk := w.ReduceScatterSum(b)
		viaRS[rank] = w.AllGather(chunk)
	})
	for rank := 0; rank < n; rank++ {
		for i := range viaAR[rank] {
			if viaAR[rank][i] != viaRS[rank][i] {
				t.Fatalf("rank %d elem %d: AR %v vs RS+AG %v",
					rank, i, viaAR[rank][i], viaRS[rank][i])
			}
		}
	}
}
