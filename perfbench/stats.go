package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middles for an
// even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is the number of samples that must lie beyond a percentile for
// it to be reported: a p99 over 200 samples rests on two values and moves
// with every run.
const minTail = 10

// ladder is the set of percentiles the benchmark reports, highest first.
var ladder = []float64{99.9, 99, 90, 50}

// percentile returns the nearest-rank q-th percentile of xs (q in (0,100])
// and the number of samples strictly beyond its rank. Failed operations
// enter xs as +Inf, so a run that fails more than (100−q)% of its
// operations reports an infinite percentile instead of a flattering one.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := rankOf(len(s), q)
	return s[rank-1], len(s) - rank
}

// rankOf is the 1-based nearest rank of the q-th percentile of n samples.
// The epsilon keeps q·n/100 from rounding up past an exact integer
// (99.9% of 10,000 is rank 9,990, not 9,991).
func rankOf(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// supported reports whether the q-th percentile of n samples has at least
// minTail samples beyond it.
func supported(n int, q float64) bool {
	return n-rankOf(n, q) >= minTail
}

// tail returns the highest percentile on the ladder that the sample count
// supports, its value, and false when not even the median is supported.
func tail(xs []float64) (q, v float64, ok bool) {
	for _, q := range ladder {
		if supported(len(xs), q) {
			v, _ := percentile(xs, q)
			return q, v, true
		}
	}
	return 0, math.NaN(), false
}

// latencies collects per-operation latencies in milliseconds; a failed
// operation is recorded as +Inf.
type latencies struct {
	ms     []float64
	failed int64
}

func (l *latencies) ok(d time.Duration) { l.ms = append(l.ms, ms(d)) }

func (l *latencies) fail() {
	l.ms = append(l.ms, math.Inf(1))
	l.failed++
}

// firstDiff returns the first index at which got and want differ bit for
// bit or in length, or -1 when they are identical.
func firstDiff(got, want []float64) int {
	for i := range got {
		if i >= len(want) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	if len(got) != len(want) {
		return len(got)
	}
	return -1
}

// fastest returns the smallest value of xs; NaN for an empty slice. It is
// the figure the training workloads gate on: on a shared host another
// tenant's thread on the same physical core only ever slows an epoch, by
// up to 2×, so the fastest of many short epochs estimates the program's
// own cost where their median follows the co-tenant's load.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// epochIntervals returns, in seconds, the length of each steady-state
// epoch of a long run from the times at which one rank entered each of
// its collectives (long[i] for the i-th). The short run executes the same
// collectives before and after its epochs, and every epoch the same
// number, so the long run's extra collectives give the count per epoch, c,
// and the short run's total the count outside the epochs, p. From
// collective i to collective i+c is then exactly one epoch whenever both
// lie in epochs from steady on, which holds for every i from p+steady·c to
// longEpochs·c−c−1 wherever the p outside collectives fall.
func epochIntervals(nShort, shortEpochs int, long []time.Time, longEpochs, steady int) ([]float64, error) {
	dE := longEpochs - shortEpochs
	extra := len(long) - nShort
	if dE <= 0 || extra <= 0 || extra%dE != 0 {
		return nil, fmt.Errorf("epochIntervals: %d collectives in %d epochs and %d in %d do not give a whole number per epoch",
			nShort, shortEpochs, len(long), longEpochs)
	}
	c := extra / dE
	p := nShort - shortEpochs*c
	if p < 0 {
		return nil, fmt.Errorf("epochIntervals: %d collectives per epoch exceed the short run's %d over %d epochs", c, nShort, shortEpochs)
	}
	var out []float64
	for i := p + steady*c; i+c <= longEpochs*c-1; i += c {
		out = append(out, long[i+c].Sub(long[i]).Seconds())
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("epochIntervals: no whole steady-state epoch (%d collectives per epoch, %d outside)", c, p)
	}
	return out, nil
}

// scv is the squared coefficient of variation of the gaps between
// consecutive arrival offsets: variance over squared mean. A Poisson
// process has SCV 1; a two-state MMPP is strictly above 1
// (arXiv:1802.08400).
func scv(arrivals []time.Duration) float64 {
	if len(arrivals) < 3 {
		return math.NaN()
	}
	gaps := make([]float64, len(arrivals)-1)
	var mean float64
	for i := range gaps {
		gaps[i] = float64(arrivals[i+1] - arrivals[i])
		mean += gaps[i]
	}
	mean /= float64(len(gaps))
	var v float64
	for _, g := range gaps {
		v += (g - mean) * (g - mean)
	}
	v /= float64(len(gaps))
	return v / (mean * mean)
}

// checkBursty fails unless the realised schedule is burstier than Poisson.
// An "MMPP" schedule at or below SCV 1 is a generator bug, not a property
// of the workload.
func checkBursty(arrivals []time.Duration) (float64, error) {
	c := scv(arrivals)
	if !(c > 1) {
		return c, fmt.Errorf("MMPP schedule has inter-arrival SCV %.3f over %d arrivals; a two-state MMPP must exceed 1", c, len(arrivals))
	}
	return c, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
