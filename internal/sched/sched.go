// Package sched implements the scheduler models of the mobile-robot
// literature. The paper's result is for FSYNC (all robots execute every
// Look-Compute-Move cycle simultaneously); the SSYNC and CENT schedulers
// here support the robustness extension experiments (E8): the paper's
// §V lists non-FSYNC gathering as future work, and these schedulers show
// concretely where the FSYNC assumption is load-bearing. A scheduler is
// an activation (sim.Activation) with a name; Run hands it to
// internal/sim's one run loop.
package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
)

// Scheduler selects which robots are activated each round.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Select returns the robots activated in a round under the
	// sim.Activation contract: ascending indices into the sorted node
	// list, a function of (n, round) for a given value, read-only.
	sim.Activation
}

// Periodic is a Scheduler with a declared period (sim.Periodic): FSYNC
// and RoundRobin. Run detects its deterministic defeats as livelocks
// and memoizes its runs' outcomes.
type Periodic interface {
	Scheduler
	// Period returns the scheduler's period for n robots (at least 1).
	Period(n int) int
}

// identity backs the read-only activations Everyone and RoundRobin
// hand out: identity[i] == i.
var identity = func() (a [64]int) {
	for i := range a {
		a[i] = i
	}
	return a
}()

// Everyone returns the full activation 0..n-1 — FSYNC's every round,
// and the fallback of schedulers that run out of recorded choices. The
// slice is a read-only view of a shared array (robot counts past its
// length get their own copy); its capacity is clipped, so an append by
// the caller copies instead of writing into it.
func Everyone(n int) []int {
	if n <= len(identity) {
		return identity[:n:n]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// FSYNC activates every robot every round (the paper's model).
type FSYNC struct{}

// Name implements Scheduler.
func (FSYNC) Name() string { return "fsync" }

// Select implements Scheduler.
func (FSYNC) Select(n, _ int) []int { return Everyone(n) }

// Period implements Periodic: the FSYNC selection never varies.
func (FSYNC) Period(int) int { return 1 }

// RoundRobin activates exactly one robot per round, cycling through the
// sorted positions — the centralized (CENT) adversary.
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Select implements Scheduler.
func (RoundRobin) Select(n, round int) []int {
	i := round % n
	if i < len(identity) {
		return identity[i : i+1 : i+1]
	}
	return []int{i}
}

// Period implements Periodic: the rotation closes after n rounds.
func (RoundRobin) Period(n int) int { return n }

// RandomSubset activates a uniformly random non-empty subset each round —
// a probabilistic SSYNC adversary. The zero value panics; build with
// NewRandomSubset (from a seed) or NewRandomSubsetFrom (from a source).
//
// The schedule is recorded: the first time a round is asked for, the
// value draws every round up to it in order, one subset per round from
// its source, and after that Select replays the recorded subsets. So a
// value is one fixed schedule, Select(n, r) returns the r-th draw
// whatever order the rounds are asked in, and one value can drive any
// number of runs, each of which sees exactly what a fresh value of the
// same seed would show it. The schedule is for one robot count: a
// value built with NewRandomSubset reseeds from its seed when n
// changes (its schedule for the new n is a fresh value's); a value
// built with NewRandomSubsetFrom cannot rewind its source and panics
// instead.
//
// There is no hidden global state — every draw comes from the
// value's own source — so runs are reproducible and concurrent sweeps
// stay independent by giving each worker its own value. A RandomSubset
// is not safe for concurrent use.
type RandomSubset struct {
	rng *rand.Rand
	// seed is the source's seed when seeded is set (NewRandomSubset);
	// a value built from a caller's source cannot reseed.
	seed   int64
	seeded bool
	// n is the robot count of the recorded schedule (0 before the
	// first Select). Round r's subset is idx[end[r-1]:end[r]], with
	// end[-1] taken as 0.
	n   int
	idx []int
	end []int
}

// NewRandomSubsetFrom returns an SSYNC scheduler drawing from the given
// seeded source. It panics on a nil source rather than falling back to
// the global one — reproducibility is the point. Callers that stream
// one source across runs build one value per run from it, so each run
// draws the rounds it reaches, in order, after the runs before it.
func NewRandomSubsetFrom(rng *rand.Rand) *RandomSubset {
	if rng == nil {
		panic("sched: nil *rand.Rand; seed one with rand.New(rand.NewSource(seed))")
	}
	return &RandomSubset{rng: rng}
}

// NewRandomSubset returns an SSYNC scheduler with a fresh source seeded
// with the given value.
func NewRandomSubset(seed int64) *RandomSubset {
	s := NewRandomSubsetFrom(rand.New(rand.NewSource(seed)))
	s.seed, s.seeded = seed, true
	return s
}

// Name implements Scheduler.
func (*RandomSubset) Name() string { return "ssync-random" }

// Select implements Scheduler: the recorded subset of the round,
// drawing up to it first if the round is new.
func (s *RandomSubset) Select(n, round int) []int {
	if n != s.n {
		if s.n != 0 {
			if !s.seeded {
				panic(fmt.Sprintf("sched: RandomSubset from a caller's source asked for %d robots after %d; it cannot rewind the source", n, s.n))
			}
			s.rng.Seed(s.seed)
		}
		s.n, s.idx, s.end = n, s.idx[:0], s.end[:0]
	}
	for len(s.end) <= round {
		s.draw()
	}
	lo, hi := 0, s.end[round]
	if round > 0 {
		lo = s.end[round-1]
	}
	return s.idx[lo:hi:hi]
}

// draw appends the next round's non-empty subset to the record: one
// coin per robot in index order, redrawn whole when it comes up empty.
func (s *RandomSubset) draw() {
	start := len(s.idx)
	for len(s.idx) == start {
		for i := 0; i < s.n; i++ {
			if s.rng.Intn(2) == 1 {
				s.idx = append(s.idx, i)
			}
		}
	}
	s.end = append(s.end, len(s.idx))
}

// Run executes alg from initial under the given scheduler: robots not
// activated in a round keep their positions (they are not even
// activated for a Look). It is sim.RunActivated — the one run loop,
// with the outcome semantics of sim.Run, which it equals under FSYNC.
func Run(alg core.Algorithm, initial config.Config, s Scheduler, opts sim.Options) sim.Result {
	return sim.RunActivated(alg, initial, s, opts)
}
