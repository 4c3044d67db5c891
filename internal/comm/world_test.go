package comm

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestBarrierSynchronizes(t *testing.T) {
	var before, after atomic.Int32
	RunInProcess(8, func(w *World) {
		rank := w.Self()
		before.Add(1)
		w.Barrier()
		if got := before.Load(); got != 8 {
			t.Errorf("rank %d passed barrier with only %d arrivals", rank, got)
		}
		after.Add(1)
	})
	if after.Load() != 8 {
		t.Fatalf("only %d ranks finished", after.Load())
	}
}

func TestBarrierReusable(t *testing.T) {
	counter := make([]int32, 10)
	RunInProcess(4, func(w *World) {
		for round := 0; round < 10; round++ {
			atomic.AddInt32(&counter[round], 1)
			w.Barrier()
			if got := atomic.LoadInt32(&counter[round]); got != 4 {
				t.Errorf("round %d: %d arrivals", round, got)
			}
			w.Barrier()
		}
	})
}

func TestAllReduceSum(t *testing.T) {
	results := make([][]float32, 5)
	RunInProcess(5, func(w *World) {
		rank := w.Self()
		data := []float32{float32(rank), 1, float32(rank * rank)}
		w.AllReduceSum(data)
		results[rank] = data
	})
	// Σrank = 0+1+2+3+4 = 10; Σ1 = 5; Σrank² = 30.
	want := []float32{10, 5, 30}
	for rank, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: got %v want %v", rank, got, want)
			}
		}
	}
}

func TestAllReduceSumDeterministicOrder(t *testing.T) {
	// Float addition isn't associative; the reduction must be applied in
	// rank order so every rank computes bit-identical results, every run.
	rng := rand.New(rand.NewSource(42))
	inputs := make([][]float32, 7)
	for r := range inputs {
		inputs[r] = make([]float32, 64)
		for i := range inputs[r] {
			inputs[r][i] = rng.Float32()*2e8 - 1e8
		}
	}
	run := func() [][]float32 {
		out := make([][]float32, 7)
		RunInProcess(7, func(w *World) {
			rank := w.Self()
			data := append([]float32(nil), inputs[rank]...)
			w.AllReduceSum(data)
			out[rank] = data
		})
		return out
	}
	a, b := run(), run()
	for r := range a {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("rank %d elem %d: %v != %v across runs", r, i, a[r][i], b[r][i])
			}
			if a[r][i] != a[0][i] {
				t.Fatalf("rank %d disagrees with rank 0 at elem %d", r, i)
			}
		}
	}
}

func TestAlltoAllV(t *testing.T) {
	const n = 4
	recvAll := make([][][]float32, n)
	RunInProcess(n, func(w *World) {
		rank := w.Self()
		send := make([][]float32, n)
		for dst := 0; dst < n; dst++ {
			// rank sends [rank*10+dst] repeated (dst+1) times to dst.
			buf := make([]float32, dst+1)
			for i := range buf {
				buf[i] = float32(rank*10 + dst)
			}
			send[dst] = buf
		}
		recvAll[rank] = w.AlltoAllV(send)
	})
	for rank := 0; rank < n; rank++ {
		for src := 0; src < n; src++ {
			got := recvAll[rank][src]
			if len(got) != rank+1 {
				t.Fatalf("rank %d from %d: len %d want %d", rank, src, len(got), rank+1)
			}
			for _, v := range got {
				if v != float32(src*10+rank) {
					t.Fatalf("rank %d from %d: value %v want %d", rank, src, v, src*10+rank)
				}
			}
		}
	}
}

func TestAlltoAllVEmptyBuffers(t *testing.T) {
	const n = 3
	RunInProcess(n, func(w *World) {
		rank := w.Self()
		send := make([][]float32, n) // all nil
		if rank == 0 {
			send[1] = []float32{7}
		}
		recv := w.AlltoAllV(send)
		if rank == 1 {
			if len(recv[0]) != 1 || recv[0][0] != 7 {
				t.Errorf("rank 1 expected [7] from rank 0, got %v", recv[0])
			}
		} else {
			for src, buf := range recv {
				if len(buf) != 0 {
					t.Errorf("rank %d got unexpected data from %d: %v", rank, src, buf)
				}
			}
		}
	})
}

func TestAlltoAllVReturnsCopies(t *testing.T) {
	const n = 2
	src := []float32{1, 2, 3}
	RunInProcess(n, func(w *World) {
		rank := w.Self()
		send := make([][]float32, n)
		if rank == 0 {
			send[1] = src
		}
		recv := w.AlltoAllV(send)
		if rank == 1 {
			recv[0][0] = 99
		}
	})
	if src[0] != 1 {
		t.Fatal("receiver mutated sender's buffer — AlltoAllV must copy")
	}
}

func TestRepeatedCollectivesInterleaved(t *testing.T) {
	RunInProcess(3, func(w *World) {
		rank := w.Self()
		for iter := 0; iter < 20; iter++ {
			data := []float32{float32(rank + iter)}
			w.AllReduceSum(data)
			want := float32(0+1+2) + 3*float32(iter)
			if data[0] != want {
				t.Errorf("iter %d rank %d: got %v want %v", iter, rank, data[0], want)
			}
			send := make([][]float32, 3)
			for d := 0; d < 3; d++ {
				send[d] = []float32{float32(rank)}
			}
			recv := w.AlltoAllV(send)
			for srcRank, buf := range recv {
				if buf[0] != float32(srcRank) {
					t.Errorf("iter %d: rank %d got %v from %d", iter, rank, buf[0], srcRank)
				}
			}
		}
	})
}

func TestCostModelAllReduceSingleRankFree(t *testing.T) {
	if got := DefaultCostModel().AllReduceSeconds(1<<20, 1); got != 0 {
		t.Fatalf("k=1 AllReduce must cost 0, got %v", got)
	}
}

// TestCostModelScalesWithVolume pins the α–β formulas on round numbers:
// a message costs α plus its bytes at β, and more volume costs more.
func TestCostModelScalesWithVolume(t *testing.T) {
	c := CostModel{NetLatency: 1e-6, NetBandwidth: 1e9, MemBandwidth: 1e10}
	if got := c.NetSeconds(2, 1000); got != 3e-6 {
		t.Fatalf("2 messages of 1000 B in all: %v, want 3µs", got)
	}
	if got := c.GatherSeconds(1e4); got != 1e-6 {
		t.Fatalf("gather of 10 kB: %v, want 1µs", got)
	}
	// A 4-rank ring moves 2·3 steps of 1000/4 bytes.
	if got, want := c.AllReduceSeconds(1000, 4), 6e-6+6*250/1e9; got != want {
		t.Fatalf("4-rank AllReduce: %v, want %v", got, want)
	}
	if c.NetSeconds(1, 1e8) <= c.NetSeconds(1, 1000) {
		t.Fatal("larger transfers must cost more")
	}
}

func TestWorldRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProcFabric(0)
}

// procWorlds builds an n-rank in-process fabric with one World per rank,
// for tests that drive several ranks from one goroutine.
func procWorlds(n int) []*World {
	ws := make([]*World, n)
	for r, ep := range NewProcFabric(n) {
		ws[r] = NewWorldTransport(ep)
	}
	return ws
}
