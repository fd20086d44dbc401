package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4),
// which is how the spread of a set of runs is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v", c.xs, q1, q2, q3, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{240, 0.95, 228, true},  // rank ceil(228) has 12 beyond
		{200, 0.95, 190, true},  // exactly 10 beyond
		{100, 0.95, 90, true},   // rank 95 has 5 beyond: lowered to 90
		{1000, 0.99, 990, true}, // exactly 10 beyond
		{500, 0.99, 490, true},  // lowered from 495
		{11, 0.99, 1, true},     // the lowest sample is the only one supported
		{10, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v %v, want %v %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	ms := time.Millisecond
	on := sent{due: 10 * ms, start: 10 * ms, done: 11 * ms}
	late := sent{due: 10 * ms, start: 13 * ms, done: 14 * ms}
	if on.latency() != ms || on.lateness() != 0 {
		t.Errorf("on-time request: latency %v lateness %v", on.latency(), on.lateness())
	}
	// A request the generator sent late still counts the wait before it
	// went out.
	if late.latency() != 4*ms || late.lateness() != 3*ms {
		t.Errorf("late request: latency %v lateness %v", late.latency(), late.lateness())
	}
	// A failed request misses every limit: it sorts above any answer.
	failed := sent{due: 10 * ms, start: 10 * ms, done: 10 * ms, failed: true}
	lat := durations([]time.Duration{on.latency(), failed.latency(), late.latency()}, ms)
	if !math.IsInf(lat[1], 1) || lat[0] != 1 || lat[2] != 4 {
		t.Errorf("latencies in ms = %v", lat)
	}
	if m := median(lat); m != 4 {
		t.Errorf("median with one failure = %v, want 4", m)
	}
}

func TestBacklogGrowing(t *testing.T) {
	ms := time.Millisecond
	steady := []sent{{due: 0, start: 0}, {due: 500 * ms, start: 501 * ms}, {due: 2500 * ms, start: 2501 * ms}}
	if backlogGrowing(steady, 3*time.Second) {
		t.Error("steady generator reported as falling behind")
	}
	growing := []sent{{due: 0, start: 0}, {due: 500 * ms, start: 501 * ms}, {due: 2500 * ms, start: 2520 * ms}}
	if !backlogGrowing(growing, 3*time.Second) {
		t.Error("generator 20ms behind in the last second not reported")
	}
}

func TestArrivalsPoisson(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	b := arrivals(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if len(a) != len(b) || a[len(a)/2] != b[len(b)/2] {
		t.Fatal("the same seed drew different schedules")
	}
	// 10000 expected arrivals; Poisson noise is ±100.
	if len(a) < 9500 || len(a) > 10500 {
		t.Errorf("%d arrivals at 1000/s over 10s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
}
