package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// heapPeak samples live heap bytes in the background until stop. It reads
// runtime/metrics, which does not stop the world, so the untraced runs can
// afford it.
type heapPeak struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops sampling and returns the peak in MiB.
func (h *heapPeak) stopMB() float64 {
	close(h.quit)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// memDelta is the allocation and GC-pause cost of a stretch of work.
type memDelta struct {
	allocBytes uint64
	pause      time.Duration
}

// memMark reads the allocation counters at the start of a stretch.
func memMark() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (d *memDelta) add(e memDelta) {
	d.allocBytes += e.allocBytes
	d.pause += e.pause
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := memMark()
	return memDelta{
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		pause:      time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

// settle collects garbage left by earlier phases so one phase's heap does
// not inflate the next phase's peak or GC pauses.
func settle() { runtime.GC() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the CPU time the process has used, user plus system, over
// all threads. The hypervisor's stolen time is not charged to it, so on a
// shared host it measures the work done where wall time also measures the
// neighbours.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupTimer measures repeated set-up: CPU seconds (the reported figure)
// and wall seconds (printed alongside) per repetition.
type setupTimer struct {
	cpu, wall []float64
	c0        time.Duration
	w0        time.Time
}

func (t *setupTimer) start() {
	settle()
	t.c0, t.w0 = cpuTime(), time.Now()
}

func (t *setupTimer) stop() {
	t.cpu = append(t.cpu, (cpuTime() - t.c0).Seconds())
	t.wall = append(t.wall, time.Since(t.w0).Seconds())
}
