package sched

// Equivalence tests for the outcome store under the schedulers: with
// Options.Outcomes set, Run must report the same Status, Rounds and
// Moves as the unmemoized run for every pattern, scheduler, round
// budget and store state — the run loop's memoized walk over
// phase-folded keys (periodic schedulers) and its universal no-mover
// facts (every scheduler) are pure optimizations. The walk's
// partial-cycle hazard and concurrent-publication tests live with it,
// in internal/sim's memoized_test.go, and run over a round-robin
// walker too.

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/sim"
)

func schedDirectOpts() sim.Options {
	return sim.Options{DetectCycles: true, StopOnDisconnect: true}
}

func schedMemoOpts(st *memo.Outcomes) sim.Options {
	o := schedDirectOpts()
	o.Outcomes = st
	return o
}

func schedCompare(t *testing.T, label string, c config.Config, direct, memod sim.Result) {
	t.Helper()
	if direct.Status != memod.Status || direct.Rounds != memod.Rounds || direct.Moves != memod.Moves {
		t.Fatalf("%s: pattern %s: direct (%v, %d rounds, %d moves) != memoized (%v, %d rounds, %d moves)",
			label, c.Key(), direct.Status, direct.Rounds, direct.Moves, memod.Status, memod.Rounds, memod.Moves)
	}
	if !direct.Final.SamePattern(memod.Final) {
		t.Fatalf("%s: pattern %s: finals differ as patterns: %s vs %s",
			label, c.Key(), direct.Final.Key(), memod.Final.Key())
	}
}

// TestSchedMemoEquivalenceRoundRobin runs every connected pattern
// under the centralized adversary both ways, sharing one store (cold
// first pass, fully warm second pass).
func TestSchedMemoEquivalenceRoundRobin(t *testing.T) {
	top := 6
	if !testing.Short() {
		top = 7
	}
	alg := core.Gatherer{}
	for n := 4; n <= top; n++ {
		st := memo.NewOutcomes()
		for _, c := range enumerate.Connected(n) {
			direct := Run(alg, c, RoundRobin{}, schedDirectOpts())
			memod := Run(alg, c, RoundRobin{}, schedMemoOpts(st))
			schedCompare(t, fmt.Sprintf("rr n=%d", n), c, direct, memod)
		}
		if st.Created() == 0 || st.Hits() == 0 {
			t.Fatalf("n=%d: store unused: created=%d hits=%d", n, st.Created(), st.Hits())
		}
		for _, c := range enumerate.Connected(n) {
			direct := Run(alg, c, RoundRobin{}, schedDirectOpts())
			memod := Run(alg, c, RoundRobin{}, schedMemoOpts(st))
			schedCompare(t, fmt.Sprintf("rr n=%d warm", n), c, direct, memod)
		}
	}
}

// TestSchedMemoBudgetEquivalence sweeps every n = 5 pattern under
// round-robin with every small iteration budget, against a cold and a
// pre-warmed store: an outcome that does not fit the remaining budget
// must yield the direct run's result (usually RoundLimit), never an
// over-budget splice. Round-robin budgets are iteration budgets — the
// idle-round accounting (Outcome.Raw) is exactly what this exercises.
func TestSchedMemoBudgetEquivalence(t *testing.T) {
	alg := core.Gatherer{}
	warm := memo.NewOutcomes()
	pats := enumerate.Connected(5)
	for _, c := range pats {
		Run(alg, c, RoundRobin{}, schedMemoOpts(warm))
	}
	for _, c := range pats {
		for budget := 1; budget <= 48; budget++ {
			d := schedDirectOpts()
			d.MaxRounds = budget
			direct := Run(alg, c, RoundRobin{}, d)
			m := schedMemoOpts(memo.NewOutcomes())
			m.MaxRounds = budget
			schedCompare(t, fmt.Sprintf("cold budget=%d", budget), c, direct, Run(alg, c, RoundRobin{}, m))
			w := schedMemoOpts(warm)
			w.MaxRounds = budget
			schedCompare(t, fmt.Sprintf("warm budget=%d", budget), c, direct, Run(alg, c, RoundRobin{}, w))
		}
	}
}

// TestSchedMemoFSYNCSharesSimStore checks the period-1 interop: the
// FSYNC scheduler's walk and the simulator's walk publish and consume
// the same bare-key facts, so a store warmed by sim.Run turns every
// sched.Run(FSYNC) into a whole-run splice, bit-identical to both.
func TestSchedMemoFSYNCSharesSimStore(t *testing.T) {
	alg := core.Gatherer{}
	st := memo.NewOutcomes()
	pats := enumerate.Connected(5)
	for _, c := range pats {
		sim.Run(alg, c, schedMemoOpts(st))
	}
	before := st.Hits()
	for _, c := range pats {
		direct := Run(alg, c, FSYNC{}, schedDirectOpts())
		memod := Run(alg, c, FSYNC{}, schedMemoOpts(st))
		schedCompare(t, "fsync-interop", c, direct, memod)
	}
	if st.Hits() == before {
		t.Fatal("sched.Run(FSYNC) never hit the sim-warmed store")
	}
}

// TestSchedMemoTierARandom runs seeded random SSYNC schedules against
// a store warmed with universal no-mover facts (via FSYNC sim runs and
// earlier tier-A publications): results must match the direct run
// seed for seed — the only sharable fact is schedule-independent.
func TestSchedMemoTierARandom(t *testing.T) {
	alg := core.Gatherer{}
	st := memo.NewOutcomes()
	// n = 6: under random SSYNC the Gatherer reaches gathered finals on
	// almost every pattern, so the FSYNC-warmed stall facts get real use
	// (smaller n mostly collide or livelock, which tier A cannot share).
	pats := enumerate.Connected(6)
	for _, c := range pats {
		sim.Run(alg, c, schedMemoOpts(st)) // warm with FSYNC facts
	}
	hits := 0
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < seeds; seed++ {
		for _, c := range pats {
			direct := Run(alg, c, NewRandomSubset(seed), schedDirectOpts())
			before := st.Hits()
			memod := Run(alg, c, NewRandomSubset(seed), schedMemoOpts(st))
			if st.Hits() > before {
				hits++
			}
			schedCompare(t, fmt.Sprintf("ssync seed=%d", seed), c, direct, memod)
		}
	}
	if hits == 0 {
		t.Fatal("tier A never consulted a universal fact")
	}
}

// TestSchedMemoTierAPublishes checks the publication side without any
// FSYNC warmup: a random schedule that ends in a full-activation stall
// leaves the fact behind, and a later schedule of a different seed
// consumes it.
func TestSchedMemoTierAPublishes(t *testing.T) {
	alg := core.Gatherer{}
	st := memo.NewOutcomes()
	pats := enumerate.Connected(6) // see TestSchedMemoTierARandom on the choice of n
	for _, c := range pats {
		Run(alg, c, NewRandomSubset(1), schedMemoOpts(st))
	}
	if st.Created() == 0 {
		t.Fatal("no full-activation stall published any fact")
	}
	for _, c := range pats {
		direct := Run(alg, c, NewRandomSubset(2), schedDirectOpts())
		memod := Run(alg, c, NewRandomSubset(2), schedMemoOpts(st))
		schedCompare(t, "tier-a-publish", c, direct, memod)
	}
	if st.Hits() == 0 {
		t.Fatal("published facts never consumed")
	}
}
