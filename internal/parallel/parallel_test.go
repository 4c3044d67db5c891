package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// withWorkers runs body under a temporary team size, restoring the default
// afterwards so tests don't leak configuration into each other.
func withWorkers(t *testing.T, n int, body func()) {
	t.Helper()
	Configure(Config{Workers: n})
	defer Configure(Config{})
	body()
}

func TestWorkersDefault(t *testing.T) {
	Configure(Config{})
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	Configure(Config{Workers: 3})
	defer Configure(Config{})
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after Configure(3)", got)
	}
}

// TestForMatchesSerial checks that For covers [0, n) exactly once and that a
// disjoint-write kernel produces bit-identical results to serial execution,
// across worker counts and grain sizes.
func TestForMatchesSerial(t *testing.T) {
	const n = 10007
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i)*1.5 + 1
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, grain := range []int{1, 7, 64, n + 1} {
			withWorkers(t, workers, func() {
				got := make([]float64, n)
				For(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						got[i] = float64(i)*1.5 + 1
					}
				})
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d grain=%d: element %d = %v, want %v",
							workers, grain, i, got[i], want[i])
					}
				}
			})
		}
	}
}

func TestDynamicCoversRangeOnce(t *testing.T) {
	const n = 4999
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{0, 1, 13, 512} {
			withWorkers(t, workers, func() {
				hits := make([]int32, n)
				Dynamic(n, chunk, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d chunk=%d: element %d visited %d times",
							workers, chunk, i, h)
					}
				}
			})
		}
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	For(0, 1, func(lo, hi int) { t.Fatal("fn called for n=0") })
	Dynamic(-5, 4, func(lo, hi int) { t.Fatal("fn called for n<0") })
	calls := 0
	For(1, 100, func(lo, hi int) { calls++; _ = lo; _ = hi })
	if calls != 1 {
		t.Fatalf("For(1) ran fn %d times", calls)
	}
}

// TestPanicPropagation: a panic inside any chunk must surface on the calling
// goroutine, for both schedules, whether it fires in the caller's own chunk
// or a pool worker's.
func TestPanicPropagation(t *testing.T) {
	withWorkers(t, 4, func() {
		for _, sched := range []string{"for", "dynamic"} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s: panic did not propagate", sched)
					}
					if !strings.Contains(r.(string), "boom") {
						t.Fatalf("%s: unexpected panic payload %q", sched, r)
					}
				}()
				body := func(lo, hi int) {
					if lo >= 256 {
						panic("boom")
					}
				}
				if sched == "for" {
					For(10000, 1, body)
				} else {
					Dynamic(10000, 64, body)
				}
			}()
		}
	})
	// The pool must stay usable after a panic.
	total := int64(0)
	For(100, 1, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
	if total != 100 {
		t.Fatalf("pool broken after panic: covered %d/100", total)
	}
}

// TestNestedCalls drives For-inside-For and Dynamic-inside-For hard enough
// to saturate every worker with joins. The help-first join must keep this
// deadlock-free and still cover every (i, j) pair exactly once.
func TestNestedCalls(t *testing.T) {
	const outer, inner = 64, 257
	withWorkers(t, 4, func() {
		var count atomic.Int64
		For(outer, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				Dynamic(inner, 16, func(jlo, jhi int) {
					count.Add(int64(jhi - jlo))
				})
			}
		})
		if got := count.Load(); got != outer*inner {
			t.Fatalf("nested coverage %d, want %d", got, outer*inner)
		}
	})
}

// TestConcurrentCallers mimics the distributed trainer: many rank goroutines
// invoking pooled kernels simultaneously.
func TestConcurrentCallers(t *testing.T) {
	withWorkers(t, 4, func() {
		var g Group
		var total atomic.Int64
		for r := 0; r < 8; r++ {
			g.Go(func() {
				for iter := 0; iter < 50; iter++ {
					For(1000, 8, func(lo, hi int) {
						total.Add(int64(hi - lo))
					})
				}
			})
		}
		g.Wait()
		if got := total.Load(); got != 8*50*1000 {
			t.Fatalf("concurrent coverage %d, want %d", got, 8*50*1000)
		}
	})
}

func TestGroupPanic(t *testing.T) {
	var g Group
	g.Go(func() {})
	g.Go(func() { panic("rank died") })
	defer func() {
		if r := recover(); r == nil || r.(string) != "rank died" {
			t.Fatalf("Group.Wait panic = %v, want %q", r, "rank died")
		}
	}()
	g.Wait()
}

func TestScratchReuse(t *testing.T) {
	var s Scratch[float32]
	buf := s.Get(128)
	if len(buf) != 128 {
		t.Fatalf("Get(128) length %d", len(buf))
	}
	for i := range buf {
		buf[i] = 7
	}
	s.Put(buf)
	z := s.GetZeroed(64)
	if len(z) != 64 {
		t.Fatalf("GetZeroed(64) length %d", len(z))
	}
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed element %d = %v", i, v)
		}
	}
	s.Put(z)
	big := s.Get(4096) // larger than anything pooled: fresh allocation
	if len(big) != 4096 {
		t.Fatalf("Get(4096) length %d", len(big))
	}
}

// TestScratchAllocFree pins Get and Put at zero allocations once warm.
func TestScratchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	var s Scratch[float32]
	s.Put(s.Get(64))
	if allocs := testing.AllocsPerRun(100, func() { s.Put(s.Get(64)) }); allocs != 0 {
		t.Fatalf("warm Get/Put allocates %v times, want 0", allocs)
	}
}
