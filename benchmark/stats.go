package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is one or two
// outliers, not a measurement.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples;
// 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points that split xs into four
// groups, computed as Python's statistics.quantiles(xs, n=4) does (its
// default "exclusive" method), so a spread read here matches one read
// by a Python script over the same values. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Python clamps j into [1, n-1] before it computes delta, so
		// at the clamped ends the formula extrapolates.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// spread is the quartile distance as a share of the median: the noise
// figure a bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// percentile returns the exact p-quantile of xs — the sample at rank
// ceil(p·n) — lowered where needed so that at least minBeyond samples
// lie above it: with 240 samples, "p95" is the 230th, the highest
// percentile the sample supports. ok is false when there are not more
// than minBeyond samples.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		rank = 1
	}
	return sorted(xs)[rank-1], true
}

// arrivals draws an open-loop schedule: Poisson arrivals at rate per
// second over dur, as offsets from the schedule's start.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// sent is one open-loop request as the generator saw it, all times as
// offsets from the schedule's start.
type sent struct {
	due, start, done time.Duration
	failed           bool
}

// latency is the request's latency timed from when it was due, not
// from when it went out: a stalled generator or server delays every
// request queued behind it, and that wait is what a user sees. A failed
// request misses every limit, so its latency is infinite.
func (s sent) latency() time.Duration {
	if s.failed {
		return time.Duration(math.MaxInt64)
	}
	return s.done - s.due
}

// lateness is how long after its due time the generator sent the
// request.
func (s sent) lateness() time.Duration {
	if s.start < s.due {
		return 0
	}
	return s.start - s.due
}

// backlogSlack is how much the generator's lateness may rise between
// the first and the last second of a probe before the backlog counts as
// growing: a few requests' worth at the rates probed, well above timer
// jitter.
const backlogSlack = time.Millisecond

// backlogGrowing reports whether the generator fell further behind over
// the run: the median lateness of requests due in the last second
// exceeds that of the first second by more than backlogSlack.
func backlogGrowing(reqs []sent, span time.Duration) bool {
	var first, last []float64
	for _, r := range reqs {
		switch {
		case r.due < time.Second:
			first = append(first, float64(r.lateness()))
		case r.due >= span-time.Second:
			last = append(last, float64(r.lateness()))
		}
	}
	return median(last) > median(first)+float64(backlogSlack)
}

// durations converts times to float samples in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		if d == time.Duration(math.MaxInt64) {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(d) / float64(unit)
	}
	return out
}
