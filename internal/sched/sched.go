// Package sched implements the scheduler models of the mobile-robot
// literature. The paper's result is for FSYNC (all robots execute every
// Look-Compute-Move cycle simultaneously); the SSYNC and CENT schedulers
// here support the robustness extension experiments (E8): the paper's
// §V lists non-FSYNC gathering as future work, and these schedulers show
// concretely where the FSYNC assumption is load-bearing.
package sched

import (
	"fmt"
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
	// robots activated in the given round, ascending. It must return at
	// least one index for a fair scheduler.
	//
	// For a given Scheduler value the result is a function of (n,
	// round): asking again, in any order, returns the same activation.
	// That is what lets one value serve many runs (a sweep builds one
	// scheduler per seed, not one per run) and lets Run ask for the
	// rounds it needs without perturbing later ones. The slice is
	// read-only — it may be a view of storage shared with other rounds
	// and other callers — and stays valid as long as the Scheduler does.
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

// Run executes alg from initial under the given scheduler. Robots not
// activated in a round keep their positions (they are not even activated
// for a Look). The outcome semantics match sim.Run; with the FSYNC
// scheduler the two are identical.
//
// The loop is written the way sim.Run's is: the configuration is a
// sorted node slice, with the round scratch on the stack for up to 16
// robots, and every round goes through the shared transition kernel
// (internal/step) — packed views through the algorithm's memo table,
// the kernel's sorted collision detector, step.Successor for the next
// node set, step.Connected for the split check, and pattern sets fed
// the raw nodes for cycle detection. A config.Config is built only
// where one is needed: every state of a tier-B walk and of a trace,
// and once at the end for Final, which is always the run's own copy
// and never aliases initial. s.Select is asked once per loop
// iteration, in round order; its result is read, never kept or
// written. So with a scheduler that hands out shared activations
// (FSYNC, RoundRobin, a RandomSubset replaying its record) and a
// pooled Options.CycleSet, an unmemoized run allocates only for its
// result.
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
// Outcome memoization (opts.Outcomes, ignored with RecordTrace set)
// has two tiers.
//
// Tier B — deterministic periodic schedulers (Periodic: FSYNC,
// RoundRobin) with DetectCycles and StopOnDisconnect set. The
// execution state is (pattern, round mod period) plus the idle
// counter; states entered fresh (idle == 0: the initial state and
// every state just after a moving round) are pure restart points, so
// their outcomes are facts of the scheduler's dynamics and Run drives
// internal/sim's memoized walk (sim.Walk) over them — the same walk
// sim.Run does, with the same splice guards, backfill and cycle
// publication, and results bit-identical to the unmemoized run (Final
// reported up to translation). What differs is bookkept here:
//
//   - Keys carry the phase (phaseKey). Period-1 schedulers use the
//     bare pattern key, so FSYNC interoperates with sim-published
//     outcomes in one store; longer periods shift into phase slots
//     1..period, which never collide with bare keys (different
//     periodic schedulers must still not share a store).
//   - Idle rounds burn the iteration budget without counting as
//     rounds: the walk's raw budget is the loop iteration, and a stall
//     fact is trusted only under full activation; otherwise the splice
//     needs the budget to cover the loop's own idle resolution
//     (idleLimit iterations).
//   - When the phased key does not end the run, the bare key is still
//     consulted for a universal no-mover fact (below).
//
// Tier A — every other scheduler: the seeded random SSYNC adversaries,
// a witness replay. Future activations are not a function of the
// state, so only the one schedule-independent fact is shared: if no
// robot moves under a full activation, the pattern has no movers at
// all (a move depends only on the robot's view), so every scheduler
// resolves it identically — gathered or stalled, no further rounds or
// moves. Run publishes that fact at the bare key when a full
// activation proves it and splices it (sim.SpliceStall) when the
// remaining budget covers the loop's idle resolution, which is what
// lets a 32-seed SSYNC robustness sweep share the FSYNC sweep's store
// and skip the stall tails of all its schedules after the first.
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
	// idleLimit is the idle streak after which the loop decides a
	// no-mover state under partial activation.
	idleLimit := 4 * n
	var walk *sim.Walk
	if st != nil && period > 0 && opts.DetectCycles && opts.StopOnDisconnect {
		// Tier B. A period-1 scheduler that activates every robot
		// decides a no-mover state in the same iteration.
		stallSlack := idleLimit
		if period == 1 && len(s.Select(n, 0)) == n {
			stallSlack = 0
		}
		walk = sim.NewWalk(maxRounds, stallSlack)
	}
	var res sim.Result
	if opts.RecordTrace {
		res.Trace = append(res.Trace, initial)
	}

	// Runs of up to stackRobots robots keep the round scratch on the
	// stack, as sim.Run does.
	var stack struct {
		cur, next, targets [stackRobots]grid.Coord
		moving             [stackRobots]bool
	}
	var cur, next, targets []grid.Coord
	var moving []bool
	if n <= stackRobots {
		cur, next, targets, moving = stack.cur[:0], stack.next[:0], stack.targets[:n], stack.moving[:n]
	} else {
		cur, next, targets, moving = make([]grid.Coord, 0, n), make([]grid.Coord, 0, n), make([]grid.Coord, n), make([]bool, n)
	}
	cur = initial.AppendNodes(cur)
	// curCfg is cur as a Config where the walk or the trace needs one
	// every state, and the zero Config otherwise (built at the end).
	// The walk gets its own copy of the initial state: its path states
	// become published Finals, and a caller's Config may be a window
	// into a large slab (see sim.Run).
	var curCfg config.Config
	if walk != nil {
		curCfg = config.New(cur...)
	}

	var seen *config.PatternSet    // phase-0 set (pooled via opts.CycleSet)
	var phases []config.PatternSet // phase-1..period-1 sets, lazily zero-valued
	if opts.DetectCycles {
		if opts.CycleSet != nil {
			seen = opts.CycleSet
			seen.Reset()
		} else {
			seen = new(config.PatternSet)
		}
		seen.AddNodes(cur) // the initial state sits at phase 0 either way
		if period > 1 {
			phases = make([]config.PatternSet, period-1)
		}
	}
	idle := 0 // consecutive rounds with no movement
	for round := 0; round < maxRounds; round++ {
		if idle == 0 && st != nil {
			key := memo.KeyOf(cur)
			if walk != nil {
				if r, spliced := walk.Visit(st, phaseKey(key, round, period), curCfg, round, res.Rounds, res.Moves); spliced {
					return r
				}
			}
			if walk == nil || period > 1 {
				// A universal no-mover fact at the bare key ends any
				// schedule (tier A, or a phased key that did not).
				if out, ok := st.Load(key); ok && out.Rounds == 0 && out.Raw == 0 {
					if r, spliced := sim.SpliceStall(out, res, round, idleLimit, maxRounds); spliced {
						r.Final = configOf(curCfg, cur)
						return r
					}
				}
			}
		}
		active := s.Select(n, round)
		copy(targets, cur)
		clear(moving)
		moved := 0
		for _, i := range active {
			if m := k.MoveAt(cur, cur[i]); m.IsMove() {
				targets[i] = m.Apply(cur[i])
				moving[i] = true
				moved++
			}
		}
		if coll := step.DetectCollision(cur, targets, moving); coll != nil {
			res.Status, res.Collision, res.Final = sim.Collision, coll, configOf(curCfg, cur)
			if walk != nil {
				walk.Finish(st, res, round)
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
			if len(active) == n || idle >= idleLimit {
				res.Final = configOf(curCfg, cur)
				if goal(res.Final) {
					res.Status = sim.Gathered
				} else {
					res.Status = sim.Stalled
				}
				if walk != nil {
					walk.Finish(st, res, round)
				} else if st != nil && len(active) == n {
					// Tier A publishes only the full-activation proof:
					// no robot moved with everyone active, so the
					// pattern has no movers under any scheduler. A long
					// idle streak proves that only for schedulers known
					// to have activated every robot, which non-periodic
					// schedules cannot guarantee.
					st.Publish(memo.KeyOf(cur), memo.Outcome{Status: uint8(res.Status), Final: res.Final})
				}
				return res
			}
			idle++
			continue
		}
		idle = 0
		res.Rounds++
		res.Moves += moved
		cur, next = step.Successor(targets, next[:0]), cur
		curCfg = config.Config{}
		if walk != nil || opts.RecordTrace {
			curCfg = config.New(cur...)
		}
		if opts.RecordTrace {
			res.Trace = append(res.Trace, curCfg)
		}
		if opts.StopOnDisconnect && !step.Connected(cur) {
			res.Status, res.Final = sim.Disconnected, configOf(curCfg, cur)
			if walk != nil {
				walk.Finish(st, res, round+1)
			}
			return res
		}
		if opts.DetectCycles {
			if period > 0 {
				// The state entering round round+1 is (cur, phase); a
				// repeat replays the same deterministic future forever.
				set := seen
				if ph := (round + 1) % period; ph != 0 {
					set = &phases[ph-1]
				}
				if !set.AddNodes(cur) {
					res.Status, res.Final = sim.Livelock, configOf(curCfg, cur)
					if walk != nil {
						walk.CloseCycle(st, phaseKey(memo.KeyOf(cur), round+1, period), round+1, res.Rounds, res.Moves)
					}
					return res
				}
			} else if len(active) == n && !seen.AddNodes(cur) {
				res.Status, res.Final = sim.Livelock, configOf(curCfg, cur)
				return res
			}
		}
	}
	res.Status, res.Final = sim.RoundLimit, configOf(curCfg, cur)
	return res
}

// stackRobots is the largest robot count whose round scratch Run keeps
// on the stack; larger configurations allocate it.
const stackRobots = 16

// configOf returns cfg, or builds the Config of the sorted nodes when
// cfg is the zero Config (the loop did not keep one).
func configOf(cfg config.Config, nodes []grid.Coord) config.Config {
	if cfg.Len() == 0 {
		return config.New(nodes...)
	}
	return cfg
}

// phaseKey keys the fresh state entering loop iteration round under a
// periodic scheduler: period-1 schedulers use the bare pattern key
// (interoperable with sim.Run's store), longer periods shift into
// phase slots 1..period so they never collide with bare keys.
func phaseKey(k memo.Key, round, period int) memo.Key {
	if period > 1 {
		return k.WithPhase(round%period + 1)
	}
	return k
}
