package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

func TestPercentileCountsFailuresAsInf(t *testing.T) {
	var l latencies
	for i := 1; i <= 90; i++ {
		l.ok(time.Duration(i) * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		l.fail()
	}
	if l.failed != 10 {
		t.Fatalf("failed = %d, want 10", l.failed)
	}
	if v, beyond := percentile(l.ms, 90); v != 90 || beyond != 10 {
		t.Fatalf("p90 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, _ := percentile(l.ms, 91); !math.IsInf(v, 1) {
		t.Fatalf("p91 = %v, want +Inf: 10%% of operations failed", v)
	}
	if v, _ := percentile(l.ms, 50); v != 50 {
		t.Fatalf("p50 = %v, want 50", v)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{n: 10000, wantQ: 99.9, ok: true},
		{n: 9999, wantQ: 99, ok: true},
		{n: 1000, wantQ: 99, ok: true},
		{n: 999, wantQ: 90, ok: true},
		{n: 100, wantQ: 90, ok: true},
		{n: 99, wantQ: 50, ok: true},
		{n: 20, wantQ: 50, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		q, v, ok := tail(xs)
		if ok != c.ok || (ok && q != c.wantQ) {
			t.Errorf("n=%d: tail = p%g ok=%v, want p%g ok=%v", c.n, q, ok, c.wantQ, c.ok)
			continue
		}
		if ok {
			if _, beyond := percentile(xs, q); beyond < minTail {
				t.Errorf("n=%d: p%g = %v has %d samples beyond, want ≥ %d", c.n, q, v, beyond, minTail)
			}
		}
	}
}

func TestEpochIntervalsSkipFillAndEdges(t *testing.T) {
	// Two collectives outside the epochs (split before and after in
	// different ways) and three per epoch at fixed phases of the epoch.
	// Fill epochs (below steady) take 2 s, steady ones 1 s.
	const pre, steady = 2, 3
	marks := func(before, after, epochs int) []time.Time {
		t0 := time.Unix(0, 0)
		var out []time.Time
		at := time.Duration(0)
		for i := 0; i < before; i++ {
			at += 5 * time.Second
			out = append(out, t0.Add(at))
		}
		for e := 0; e < epochs; e++ {
			d := time.Second
			if e < steady {
				d = 2 * time.Second
			}
			for _, f := range []float64{0, 0.1, 0.7} {
				out = append(out, t0.Add(at+time.Duration(f*float64(d))))
			}
			at += d
		}
		for i := 0; i < after; i++ {
			at += 5 * time.Second
			out = append(out, t0.Add(at))
		}
		return out
	}
	for before := 0; before <= pre; before++ {
		short := marks(before, pre-before, 4)
		got, err := epochIntervals(len(short), 4, marks(before, pre-before, 10), 10, steady)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < 5 {
			t.Errorf("%d before: %d intervals, want ≥ 5", before, len(got))
		}
		for i, s := range got {
			if math.Abs(s-1) > 1e-9 {
				t.Errorf("%d before: interval %d = %v s, want 1 (a fill epoch or the run's edge leaked in)", before, i, s)
			}
		}
	}
	if _, err := epochIntervals(10, 4, make([]time.Time, 15), 6, 3); err == nil {
		t.Error("5 extra collectives over 2 extra epochs: want an error")
	}
	if got := fastest([]float64{3, 1.5, 2}); got != 1.5 {
		t.Errorf("fastest = %v, want 1.5", got)
	}
}

func TestSCVAssertion(t *testing.T) {
	// Evenly spaced arrivals: SCV 0, rejected.
	even := make([]time.Duration, 100)
	for i := range even {
		even[i] = time.Duration(i) * time.Millisecond
	}
	if _, err := checkBursty(even); err == nil {
		t.Fatal("evenly spaced schedule passed the burstiness check")
	}
	// Poisson arrivals sit on the boundary (SCV ≈ 1), so only the estimate
	// is checked.
	rng := rand.New(rand.NewSource(1))
	poisson := make([]time.Duration, 20000)
	var at time.Duration
	for i := range poisson {
		at += time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
		poisson[i] = at
	}
	if c := scv(poisson); math.Abs(c-1) > 0.05 {
		t.Fatalf("Poisson SCV = %.3f, want ≈ 1", c)
	}
	// The serve-rw writer's MMPP schedule is burstier than Poisson on
	// every seed.
	for seed := int64(1); seed <= 5; seed++ {
		s, err := serveRWFull.schedule(seed, 2048, 12)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := checkBursty(s.due); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		} else if len(s.due) < 1000 {
			t.Errorf("seed %d: %d updates (SCV %.2f) leave update_p99_ms unsupported", seed, len(s.due), c)
		}
	}
}

func TestZipfRanks(t *testing.T) {
	// P(rank k) ∝ 1/(k+1)^s: rank 0 is drawn 2^s times as often as rank 1
	// and 4^s times as often as rank 3, also for s < 1.
	const s, n, draws = 0.8, 2048, 400000
	z := newZipfRanks(s, n)
	rng := rand.New(rand.NewSource(1))
	count := make([]float64, n)
	for i := 0; i < draws; i++ {
		k := z.draw(rng)
		if k < 0 || k >= n {
			t.Fatalf("rank %d outside [0, %d)", k, n)
		}
		count[k]++
	}
	for _, k := range []int{1, 3} {
		want := math.Pow(float64(k+1), s)
		if got := count[0] / count[k]; math.Abs(got/want-1) > 0.05 {
			t.Errorf("count[0]/count[%d] = %.3f, want %.3f", k, got, want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, metricName)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	if !hasMetric(endToEnd, "setup_s") {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step: same names, same order, same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		json []entry
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", c.what, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(names))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
}
