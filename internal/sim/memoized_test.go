package sim_test

// Equivalence tests for the memoized configuration-graph walk: with
// Options.Outcomes set, sim.Run must report the same Status, Rounds
// and Moves as the direct packed loop for every pattern, every round
// budget, and every store state (cold, warm, partially published) —
// the walk is a pure optimization, never a semantic change. The loop
// walks under internal/sched's periodic schedulers too, so the hazard
// and concurrency tests also drive it through sched.Run.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/sched"
	"repro/internal/sim"
)

func directOpts() sim.Options {
	return sim.Options{DetectCycles: true, StopOnDisconnect: true}
}

func memoOpts(st *memo.Outcomes) sim.Options {
	o := directOpts()
	o.Outcomes = st
	return o
}

func compare(t *testing.T, label string, c config.Config, direct, memod sim.Result) {
	t.Helper()
	if direct.Status != memod.Status || direct.Rounds != memod.Rounds || direct.Moves != memod.Moves {
		t.Fatalf("%s: pattern %s: direct (%v, %d rounds, %d moves) != memoized (%v, %d rounds, %d moves)",
			label, c.Key(), direct.Status, direct.Rounds, direct.Moves, memod.Status, memod.Rounds, memod.Moves)
	}
	if !direct.Final.SamePattern(memod.Final) {
		t.Fatalf("%s: pattern %s: finals differ as patterns: %s vs %s",
			label, c.Key(), direct.Final.Key(), memod.Final.Key())
	}
	if (direct.Collision == nil) != (memod.Collision == nil) ||
		(direct.Collision != nil && direct.Collision.Kind != memod.Collision.Kind) {
		t.Fatalf("%s: pattern %s: collision info differs: %v vs %v", label, c.Key(), direct.Collision, memod.Collision)
	}
}

// TestMemoizedEquivalenceExhaustive runs every connected pattern of
// each small robot count both ways, sharing one store per n (so later
// patterns exercise warm hits, including whole-run splices at the
// initial state).
func TestMemoizedEquivalenceExhaustive(t *testing.T) {
	top := 7
	if !testing.Short() {
		top = 8
	}
	alg := core.Gatherer{}
	for n := 3; n <= top; n++ {
		st := memo.NewOutcomes()
		for _, c := range enumerate.Connected(n) {
			direct := sim.Run(alg, c, directOpts())
			memod := sim.Run(alg, c, memoOpts(st))
			compare(t, fmt.Sprintf("n=%d", n), c, direct, memod)
		}
		if st.Created() == 0 || st.Hits() == 0 {
			t.Fatalf("n=%d: store unused: created=%d hits=%d", n, st.Created(), st.Misses())
		}
		// Second pass over a warm store: every run should now be a
		// splice at its initial state, still bit-identical.
		for _, c := range enumerate.Connected(n) {
			direct := sim.Run(alg, c, directOpts())
			memod := sim.Run(alg, c, memoOpts(st))
			compare(t, fmt.Sprintf("n=%d warm", n), c, direct, memod)
		}
	}
}

// TestMemoizedBudgetEquivalence sweeps every n = 5 pattern under every
// small round budget, against both a cold and a pre-warmed store. The
// warmed store is where the splice budget guards earn their keep: a
// memoized outcome that does not fit the remaining budget must yield
// the direct run's RoundLimit (or its on-time result), never an
// over-budget splice.
func TestMemoizedBudgetEquivalence(t *testing.T) {
	alg := core.Gatherer{}
	warm := memo.NewOutcomes()
	pats := enumerate.Connected(5)
	for _, c := range pats {
		sim.Run(alg, c, memoOpts(warm)) // default budget: fills the store
	}
	for _, c := range pats {
		for budget := 1; budget <= 16; budget++ {
			d, m := directOpts(), memoOpts(memo.NewOutcomes())
			d.MaxRounds, m.MaxRounds = budget, budget
			direct := sim.Run(alg, c, d)
			compare(t, fmt.Sprintf("cold budget=%d", budget), c, direct, sim.Run(alg, c, m))
			w := memoOpts(warm)
			w.MaxRounds = budget
			compare(t, fmt.Sprintf("warm budget=%d", budget), c, direct, sim.Run(alg, c, w))
		}
	}
}

// walker drives the memoized walk: sim.Run under FSYNC, or sched.Run
// under a periodic scheduler (the same walk over phase-folded keys,
// with idle iterations between fresh states).
type walker struct {
	name string
	run  func(c config.Config, opts sim.Options) sim.Result
	// key is the walk's key for c's initial state.
	key func(c config.Config) memo.Key
}

func walkers() []walker {
	alg := core.Gatherer{}
	return []walker{
		{"fsync",
			func(c config.Config, o sim.Options) sim.Result { return sim.Run(alg, c, o) },
			func(c config.Config) memo.Key { return memo.KeyOf(c.Nodes()) }},
		{"round-robin",
			func(c config.Config, o sim.Options) sim.Result { return sched.Run(alg, c, sched.RoundRobin{}, o) },
			// Iteration 0 sits in phase slot 1 of a period-n scheduler.
			func(c config.Config) memo.Key { return memo.KeyOf(c.Nodes()).WithPhase(1) }},
	}
}

// TestMemoizedPartialCycleHazard reproduces the one scenario where a
// naive splice would lie: a store holding the outcome of a single
// on-cycle state (as a concurrent walk can observe mid-publication),
// hit by a run whose own prefix has already entered that cycle. For
// every livelock pattern with a non-trivial tail and cycle, and every
// on-cycle member published alone, the walk must still report exactly
// the direct run's rounds and moves — under FSYNC and under the
// round-robin scheduler.
func TestMemoizedPartialCycleHazard(t *testing.T) {
	for _, w := range walkers() {
		t.Run(w.name, func(t *testing.T) {
			found := 0
			for n := 4; n <= 8 && found < 6; n++ {
				for _, c := range enumerate.Connected(n) {
					direct := w.run(c, directOpts())
					if direct.Status != sim.Livelock {
						continue
					}
					// Learn the cycle structure from a cold memoized run.
					full := memo.NewOutcomes()
					w.run(c, memoOpts(full))
					initOut, ok := full.Load(w.key(c))
					if !ok || initOut.Cycle == nil {
						t.Fatalf("n=%d %s: livelock outcome not published", n, c.Key())
					}
					ci := initOut.Cycle
					if initOut.Rounds == ci.Len || ci.Len < 2 {
						continue // need tail ≥ 1 and cycle ≥ 2 to exercise the hazard
					}
					found++
					for member := range ci.Members {
						out, ok := full.Load(member)
						if !ok {
							t.Fatalf("n=%d %s: cycle member unpublished", n, c.Key())
						}
						partial := memo.NewOutcomes()
						partial.Publish(member, out)
						compare(t, "partial-cycle", c, direct, w.run(c, memoOpts(partial)))
					}
					if found >= 6 {
						break
					}
				}
			}
			if found == 0 {
				t.Fatal("no livelock pattern with tail and cycle found — hazard untested")
			}
		})
	}
}

// TestMemoizedConcurrentHammer races many goroutines over one shared
// store per walker (run with -race in CI): results must match the
// direct run no matter which worker published which suffix first.
func TestMemoizedConcurrentHammer(t *testing.T) {
	pats := enumerate.Connected(6)
	for _, w := range walkers() {
		t.Run(w.name, func(t *testing.T) {
			want := make([]sim.Result, len(pats))
			for i, c := range pats {
				want[i] = w.run(c, directOpts())
			}
			st := memo.NewOutcomes()
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := range pats {
						j := (i + g*len(pats)/8) % len(pats) // staggered orders collide more
						got := w.run(pats[j], memoOpts(st))
						if got.Status != want[j].Status || got.Rounds != want[j].Rounds || got.Moves != want[j].Moves {
							select {
							case errs <- fmt.Sprintf("pattern %s: got (%v,%d,%d) want (%v,%d,%d)",
								pats[j].Key(), got.Status, got.Rounds, got.Moves, want[j].Status, want[j].Rounds, want[j].Moves):
							default:
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}
