// Package sched implements the scheduler models of the mobile-robot
// literature. The paper's result is for FSYNC (all robots execute every
// Look-Compute-Move cycle simultaneously); the SSYNC and CENT schedulers
// here support the robustness extension experiments (E8): the paper's
// §V lists non-FSYNC gathering as future work, and these schedulers show
// concretely where the FSYNC assumption is load-bearing.
package sched

import (
	"math/rand"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/step"
)

// Scheduler selects which robots are activated each round.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Select returns the indices (into the sorted node list) of the
	// robots activated this round. It must return at least one index for
	// a fair scheduler.
	Select(n int, round int) []int
}

// Periodic is implemented by deterministic schedulers whose selection
// depends only on the robot count and the round number modulo a fixed
// period: Select(n, r) == Select(n, r+Period(n)) for every r. For such
// a scheduler the execution state is exactly (pattern, round mod
// period) — the dynamics are deterministic and translation-invariant —
// so Run keys its cycle detection on that pair and a repeat is a
// proved livelock. Without a declared period, a repeated pattern under
// partial activation proves nothing (a different later activation may
// still escape), which is why non-periodic partial-activation defeats
// historically surfaced as RoundLimit instead of Livelock.
type Periodic interface {
	Scheduler
	// Period returns the scheduler's period for n robots (at least 1).
	Period(n int) int
}

// FSYNC activates every robot every round (the paper's model).
type FSYNC struct{}

// Name implements Scheduler.
func (FSYNC) Name() string { return "fsync" }

// Select implements Scheduler.
func (FSYNC) Select(n, _ int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Period implements Periodic: the FSYNC selection never varies.
func (FSYNC) Period(int) int { return 1 }

// RoundRobin activates exactly one robot per round, cycling through the
// sorted positions — the centralized (CENT) adversary.
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Select implements Scheduler.
func (RoundRobin) Select(n, round int) []int { return []int{round % n} }

// Period implements Periodic: the rotation closes after n rounds.
func (RoundRobin) Period(n int) int { return n }

// RandomSubset activates a uniformly random non-empty subset each round —
// a probabilistic SSYNC adversary. The zero value panics; build with
// NewRandomSubsetFrom (or the seed convenience NewRandomSubset). The
// scheduler owns no hidden global state: every draw comes from the
// *rand.Rand it was built with, so runs are reproducible and concurrent
// sweeps stay independent by giving each its own source. A *rand.Rand is
// not safe for concurrent use — do not share one across parallel runs.
type RandomSubset struct {
	rng *rand.Rand
}

// NewRandomSubsetFrom returns an SSYNC scheduler drawing from the given
// seeded source. It panics on a nil source rather than falling back to
// the global one — reproducibility is the point.
func NewRandomSubsetFrom(rng *rand.Rand) *RandomSubset {
	if rng == nil {
		panic("sched: nil *rand.Rand; seed one with rand.New(rand.NewSource(seed))")
	}
	return &RandomSubset{rng: rng}
}

// NewRandomSubset returns an SSYNC scheduler with a fresh source seeded
// with the given value.
func NewRandomSubset(seed int64) *RandomSubset {
	return NewRandomSubsetFrom(rand.New(rand.NewSource(seed)))
}

// Name implements Scheduler.
func (*RandomSubset) Name() string { return "ssync-random" }

// Select implements Scheduler.
func (s *RandomSubset) Select(n, _ int) []int {
	for {
		var out []int
		for i := 0; i < n; i++ {
			if s.rng.Intn(2) == 1 {
				out = append(out, i)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}

// Run executes alg from initial under the given scheduler. Robots not
// activated in a round keep their positions (they are not even activated
// for a Look). The outcome semantics match sim.Run; with the FSYNC
// scheduler the two are identical.
//
// Like sim.Run, the loop rides the shared transition kernel
// (internal/step): views go through the memoized packed fast path when
// the algorithm provides one, collisions are checked by the kernel's
// sorted detector, scratch buffers are reused across rounds, and cycle
// detection keys patterns with config.PatternSet instead of strings.
//
// Cycle detection under partial activation: a repeated pattern alone
// proves a livelock only when the future schedule is determined. For
// schedulers that declare a period (Periodic — FSYNC, RoundRobin), the
// execution state is exactly (pattern, round mod period), so Run keys
// the cycle set on that pair and reports Livelock on a repeat; the
// deterministic partial-activation defeats (CENT's 166 patterns) are
// detected within a couple of rotations instead of burning the whole
// round budget into RoundLimit. Non-periodic schedulers keep the
// conservative historical rule: only patterns reached by a
// full-activation round enter the cycle set.
//
// Outcome memoization (opts.Outcomes, ignored with RecordTrace set):
// for deterministic periodic schedulers the execution
// state is (pattern, round mod period), so Run keys the shared outcome
// store on that pair (memo.Key.WithPhase) and the run becomes the same
// memoized graph walk the FSYNC simulator does — cut short at the
// first known state, walked suffixes published backwards, results
// bit-identical to the unmemoized run (the splice guards mirror
// internal/sim's; Final is reported up to translation). Idle rounds
// are extra execution state the pattern key cannot carry, so only
// states entered fresh (idle == 0: the initial state, and every state
// just after a moving round) are keyed; Outcome.Raw carries the idle
// iterations a budget splice must account for. For every other
// scheduler — the seeded random SSYNC adversaries, a witness replay —
// future activations are not a function of the state, so only the one
// schedule-independent fact is shared: a pattern with no movers
// resolves (gathered or stalled) identically under every scheduler.
// Run publishes that fact when a full activation proves it
// and splices it when the remaining budget provably covers the
// direct loop's own idle-streak resolution (within 4·n iterations),
// which is what lets a 32-seed SSYNC robustness sweep skip the stall
// tails of all its schedules after the first.
func Run(alg core.Algorithm, initial config.Config, s Scheduler, opts sim.Options) sim.Result {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = sim.DefaultMaxRounds
	}
	k := step.New(alg)
	goal := opts.Goal
	if goal == nil {
		goal = config.GoalFor(initial.Len())
	}
	cur := initial
	res := sim.Result{Final: cur}
	if opts.RecordTrace {
		res.Trace = append(res.Trace, cur)
	}
	n := initial.Len()
	period := 0 // 0: no declared period — full-activation rounds only
	if per, ok := s.(Periodic); ok {
		if period = per.Period(n); period < 1 {
			period = 1
		}
	}
	st := opts.Outcomes
	if opts.RecordTrace {
		st = nil // a splice cannot reconstruct the skipped trace
	}
	var walk *schedWalk
	if st != nil && period > 0 && opts.DetectCycles && opts.StopOnDisconnect {
		// Tier B: the full memoized walk replaces the cycle sets (its
		// path index detects the same (pattern, phase) repeats).
		walk = newSchedWalk(st, period, n)
	}
	var seen *config.PatternSet    // phase-0 set (pooled via opts.CycleSet)
	var phases []config.PatternSet // phase-1..period-1 sets, lazily zero-valued
	if opts.DetectCycles && walk == nil {
		if opts.CycleSet != nil {
			seen = opts.CycleSet
			seen.Reset()
		} else {
			seen = new(config.PatternSet)
		}
		seen.Add(cur) // the initial state sits at phase 0 either way
		if period > 1 {
			phases = make([]config.PatternSet, period-1)
		}
	}
	robots := make([]grid.Coord, 0, n)
	targets := make([]grid.Coord, n)
	moving := make([]bool, n)
	idle := 0 // consecutive rounds with no movement
	for round := 0; round < maxRounds; round++ {
		robots = cur.AppendNodes(robots[:0])
		if idle == 0 && st != nil {
			if walk != nil {
				if r, spliced := walk.visit(robots, cur, round, maxRounds, &res); spliced {
					return r
				}
			} else if out, ok := st.Load(memo.KeyOf(robots)); ok && out.Rounds == 0 && out.Raw == 0 {
				// Tier A: a universal no-mover fact ends any schedule.
				if r, spliced := (&schedWalk{n: n}).spliceStall(out, round, maxRounds, cur, &res); spliced {
					return r
				}
			}
		}
		active := s.Select(len(robots), round)
		targets, moving = targets[:len(robots)], moving[:len(robots)]
		moved := 0
		for i, p := range robots {
			targets[i] = p
			moving[i] = false
		}
		for _, i := range active {
			if m := k.MoveAt(robots, robots[i]); m.IsMove() {
				targets[i] = m.Apply(robots[i])
				moving[i] = true
				moved++
			}
		}
		if coll := step.DetectCollision(robots, targets, moving); coll != nil {
			res.Status = sim.Collision
			res.Collision = coll
			res.Final = cur
			if walk != nil {
				walk.terminal(sim.Collision, round, cur, coll)
			}
			return res
		}
		if moved == 0 {
			// Under partial activation an idle round is not conclusive:
			// a different activation set may still move. Only a full
			// activation (or a long idle streak under FSYNC-equivalent
			// semantics) decides. Idle rounds never enter the cycle
			// sets: for a periodic scheduler a whole idle period means
			// no activated robot wants to move, which resolves through
			// this stall path, not as a livelock.
			if len(active) == len(robots) || idle >= 4*len(robots) {
				if goal(cur) {
					res.Status = sim.Gathered
				} else {
					res.Status = sim.Stalled
				}
				res.Final = cur
				if walk != nil {
					walk.terminal(res.Status, round, cur, nil)
				} else if st != nil && len(active) == len(robots) {
					// Tier A publishes only the full-activation proof:
					// no robot moved with everyone active, so the
					// pattern has no movers under any scheduler. A long
					// idle streak proves that only for schedulers known
					// to have activated every robot, which non-periodic
					// schedules cannot guarantee.
					st.Publish(memo.KeyOf(robots), memo.Outcome{Status: uint8(res.Status), Final: cur})
				}
				return res
			}
			idle++
			continue
		}
		idle = 0
		res.Rounds++
		res.Moves += moved
		cur = config.New(targets...)
		res.Final = cur
		if opts.RecordTrace {
			res.Trace = append(res.Trace, cur)
		}
		if opts.StopOnDisconnect && !cur.Connected() {
			res.Status = sim.Disconnected
			if walk != nil {
				walk.disconnected(round, &res)
			}
			return res
		}
		if walk != nil {
			key := walk.key(cur.AppendNodes(robots[:0]), round+1)
			if t0, on := walk.idx[key]; on {
				walk.closeCycle(t0, round, &res)
				res.Status = sim.Livelock
				return res
			}
			walk.pending, walk.hasPending = key, true
		} else if opts.DetectCycles {
			if period > 0 {
				// The state entering round round+1 is (cur, phase); a
				// repeat replays the same deterministic future forever.
				set := seen
				if ph := (round + 1) % period; ph != 0 {
					set = &phases[ph-1]
				}
				if !set.Add(cur) {
					res.Status = sim.Livelock
					return res
				}
			} else if len(active) == len(robots) && !seen.Add(cur) {
				res.Status = sim.Livelock
				return res
			}
		}
	}
	res.Status = sim.RoundLimit
	return res
}
