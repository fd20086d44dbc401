// Package sim executes Look-Compute-Move robot algorithms on triangular
// grids, checks the three collision rules of Section II-A, detects
// stalls, livelocks and disconnection, and records traces. It holds the
// one run loop: Run drives it under the fully synchronous (FSYNC)
// scheduler of the paper, and RunActivated under any Activation — the
// loop internal/sched's schedulers (SSYNC, CENT round-robin) run on.
// The memoized configuration-graph walk (memoized.go) is a private
// branch of that loop.
package sim

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/step"
)

// Status classifies the outcome of a run.
type Status uint8

// Run outcomes. Gathered is the only success; the failure statuses
// distinguish *why* a run failed, which the exhaustive verifier reports.
const (
	// Gathered: the system reached a gathering-achieved configuration and
	// every robot chose to stay (Definition 1).
	Gathered Status = iota
	// Stalled: every robot chose to stay in a non-gathered configuration —
	// the system is stuck forever (the run is deterministic).
	Stalled
	// Livelock: a configuration repeated, so the deterministic FSYNC run
	// cycles forever without gathering.
	Livelock
	// Collision: a round violated one of the three collision rules.
	Collision
	// Disconnected: the configuration split; an oblivious robot with no
	// neighbors can never rejoin (§II-A), so gathering is unreachable.
	Disconnected
	// RoundLimit: the run exceeded the round budget without any of the
	// above (should not happen with cycle detection enabled).
	RoundLimit
)

var statusNames = [...]string{
	Gathered:     "gathered",
	Stalled:      "stalled",
	Livelock:     "livelock",
	Collision:    "collision",
	Disconnected: "disconnected",
	RoundLimit:   "round-limit",
}

// String returns the lowercase status name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// MarshalText renders the status name, which also makes map[Status]int
// serialize as a JSON object keyed by status name (the sweep reports'
// by-status breakdown).
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ParseStatus inverts String: it resolves a status by its lowercase
// name. The distributed-sweep wire format and checkpoint files carry
// statuses by name, so they must parse back exactly.
func ParseStatus(name string) (Status, error) {
	for i, n := range statusNames {
		if n == name {
			return Status(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown status %q", name)
}

// UnmarshalText parses the status name, the inverse of MarshalText —
// it makes map[Status]int round-trip through JSON (checkpoint files).
func (s *Status) UnmarshalText(text []byte) error {
	v, err := ParseStatus(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// CollisionKind distinguishes the three prohibited behaviors of §II-A.
// It is the kernel's type (internal/step owns the collision rules);
// the alias keeps sim's historical API intact.
type CollisionKind = step.CollisionKind

// The three collision rules.
const (
	// Swap: two robots traverse the same edge in opposite directions
	// (rule (a)).
	Swap = step.Swap
	// OntoStationary: a robot moves onto a node whose occupant stays
	// (rule (b)).
	OntoStationary = step.OntoStationary
	// Merge: several robots move onto the same empty node (rule (c)).
	Merge = step.Merge
)

// CollisionInfo describes the first collision detected in a round
// (aliased from the kernel, which detects them).
type CollisionInfo = step.CollisionInfo

// Result summarizes a run.
type Result struct {
	Status Status
	// Rounds is the number of rounds in which some robot moved before
	// the run ended: under FSYNC every round executed (the terminal
	// round that observed "everyone stays" is not counted — it changes
	// nothing); under partial activation idle rounds are not counted
	// either.
	Rounds int
	// Moves is the total number of robot steps taken.
	Moves int
	// Final is the last configuration reached.
	Final config.Config
	// Collision is set when Status == Collision.
	Collision *CollisionInfo
	// Trace holds every configuration from the initial one to Final when
	// tracing is enabled in Options.
	Trace []config.Config
}

// Options tune a run.
type Options struct {
	// MaxRounds bounds the run's loop iterations — its rounds, idle
	// ones included; <= 0 selects DefaultMaxRounds.
	MaxRounds int
	// RecordTrace keeps every intermediate configuration in the Result.
	RecordTrace bool
	// DetectCycles tracks visited states and reports Livelock on a
	// repeat. It costs one set insertion per moving round and is on in
	// the verifier; runs with it off rely on MaxRounds.
	DetectCycles bool
	// StopOnDisconnect ends the run as soon as the configuration splits.
	// The paper's algorithm never disconnects a configuration; the
	// baselines do, and the verifier wants that reported, not chased.
	StopOnDisconnect bool
	// Goal decides when an all-stay round counts as success. Nil selects
	// config.GoalFor over the initial robot count: the paper's hexagon
	// predicate for seven robots, the generalized minimum-diameter
	// predicate for every other n (the different-robot-count extensions
	// E10 and E11). Explicit goals override, e.g. an experiment pinning
	// a specific target shape.
	Goal func(config.Config) bool
	// CycleSet, when non-nil, is the state set the run uses for cycle
	// detection; the run resets it before use, so one set can be pooled
	// across many runs (every sweep worker keeps one, so a run
	// allocates no slot table or arena of its own). It is ignored when
	// DetectCycles is false.
	CycleSet *config.PatternSet
	// Outcomes, when non-nil, is the shared configuration→outcome
	// store (internal/memo). It is engaged only with DetectCycles and
	// StopOnDisconnect set and RecordTrace off — the standard sweep
	// options — and ignored otherwise (a splice cannot rebuild a
	// trace). Under FSYNC and any Periodic activation the dynamics are
	// deterministic, and the run becomes a walk of the configuration
	// graph cut short at the first state whose outcome the store knows,
	// publishing what it walked for every later run to reuse; under any
	// other activation it shares only the schedule-independent no-mover
	// facts (memoized.go).
	//
	// Status, Rounds and Moves are bit-identical to the unmemoized
	// run. Final and Collision may come from a translated
	// representative of the terminal state (pattern keys are
	// translation-invariant, so a memoized suffix may have been walked
	// from a translated copy); Final never aliases the caller's
	// initial configuration.
	//
	// The store is scoped to one algorithm, one goal and at most one
	// periodic scheduler besides FSYNC (whose facts every scheduler
	// shares): outcomes are facts about that dynamics, and mixing them
	// is a caller error the store cannot detect. Robot count needs no
	// scoping — the key encodes it.
	//
	// Only states with an exact key (config.Key128, phase-folded under
	// a periodic scheduler) are memoized. The first state the run
	// probes without one — more than config.MaxKeyNodes robots, or a
	// spread past 15, which only relaxed starts reach — drops the store
	// for the rest of the run: no more probes, and nothing published
	// from its walk, so the run is the unmemoized one.
	Outcomes *memo.Outcomes
}

// DefaultMaxRounds bounds runs when Options.MaxRounds is unset. Gathering
// from a connected 7-robot configuration takes tens of rounds; 10000 is
// far beyond any legitimate run.
const DefaultMaxRounds = 10000

// Activation chooses the robots each round activates. internal/sched's
// schedulers implement it; Run is the activation "everyone, every
// round".
type Activation interface {
	// Select returns the indices (into the sorted node list) of the
	// robots activated in the given round, ascending. It must return at
	// least one index for a fair scheduler.
	//
	// For a given value the result is a function of (n, round): asking
	// again, in any order, returns the same activation. That is what
	// lets one value serve many runs (a sweep builds one scheduler per
	// seed, not one per run) and lets the loop ask for the rounds it
	// needs without perturbing later ones. The slice is read-only — it
	// may be a view of storage shared with other rounds and other
	// callers — and stays valid as long as the value does.
	Select(n int, round int) []int
}

// Periodic is implemented by deterministic activations whose selection
// depends only on the robot count and the round number modulo a fixed
// period: Select(n, r) == Select(n, r+Period(n)) for every r. For such
// an activation the execution state is exactly (pattern, round mod
// period) — the dynamics are deterministic and translation-invariant —
// so the loop keys its cycle detection and its outcome memo on that
// pair, and a repeat is a proved livelock. Without a declared period a
// repeated pattern under partial activation proves nothing (a
// different later activation may still escape), so only patterns
// reached by a full-activation round enter the cycle set; such a
// run's deterministic defeats end in RoundLimit, not Livelock.
type Periodic interface {
	Activation
	// Period returns the period for n robots (at least 1).
	Period(n int) int
}

// Run executes alg from the initial configuration under FSYNC until the
// system gathers, fails, or exhausts the round budget.
func Run(alg core.Algorithm, initial config.Config, opts Options) Result {
	return run(alg, initial, nil, opts)
}

// RunActivated executes alg from the initial configuration under the
// activation a: robots not activated in a round keep their positions
// (they do not even Look). The outcome semantics are Run's, which is
// the activation "everyone, every round".
func RunActivated(alg core.Algorithm, initial config.Config, a Activation, opts Options) Result {
	return run(alg, initial, a, opts)
}

// stackRobots is the largest robot count whose round scratch the loop
// keeps on the stack; larger configurations allocate it.
const stackRobots = 16

// run is the one run loop; a nil activation is FSYNC.
//
// It holds the configuration as a reused sorted slice and drives every
// round through the shared transition kernel (internal/step): packed
// views, moves through the algorithm's memo table, collision and
// disconnection checks by index scans, cycle detection in a pattern
// set fed the raw nodes — so a steady-state round allocates nothing. A
// config.Config is built only where one is kept: every state of a
// memoized walk, every trace entry, and the Final, which is the run's
// own copy and never aliases initial (a caller's Config may be a
// window into a large slab — enumerate materializes whole pattern
// lists in one — and a Final aliasing it would keep the whole slab
// alive). a.Select is asked once per loop iteration, in round order,
// and its result is read, never kept or written.
//
// An idle round (nobody activated wants to move) under partial
// activation is not conclusive: a different activation may still
// move. It burns budget without counting as a round, and only a full
// activation, or a streak of 4·n idle rounds, decides the state
// gathered or stalled. Idle rounds never enter the cycle set: for a
// periodic activation a whole idle period means no activated robot
// wants to move, which resolves through that stall rule.
//
// Memoization is one branch of the loop (Options.Outcomes): a walk
// over the run's own fresh states for FSYNC and periodic activations,
// the no-mover facts for the rest (memoized.go). The test-only
// internal/oracle package holds the independent map/string reference
// this loop must match result for result.
func run(alg core.Algorithm, initial config.Config, a Activation, opts Options) Result {
	k := step.New(alg)
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	goal := opts.Goal
	if goal == nil {
		goal = config.GoalFor(initial.Len())
	}
	n := initial.Len()
	period := 1 // 0: no declared period — full-activation rounds only
	if a != nil {
		period = 0
		if p, ok := a.(Periodic); ok {
			period = max(p.Period(n), 1)
		}
	}
	// idleLimit is the idle streak after which the loop decides a
	// no-mover state under partial activation; stallSlack is the most
	// idle iterations it can spend deciding one (0 when every robot is
	// activated every round, which decides at once).
	idleLimit := 4 * n
	stallSlack := idleLimit
	if a == nil || period == 1 && len(a.Select(n, 0)) == n {
		stallSlack = 0
	}
	st := opts.Outcomes
	if !opts.DetectCycles || !opts.StopOnDisconnect || opts.RecordTrace {
		st = nil
	}
	var res Result
	if opts.RecordTrace {
		res.Trace = append(res.Trace, initial)
	}

	// Runs of up to stackRobots robots keep the round scratch on the
	// stack: a sweep makes one run per pattern, and these buffers were
	// most of its garbage.
	var stack struct {
		cur, next, targets [stackRobots]grid.Coord
		moving             [stackRobots]bool
	}
	var cur []grid.Coord
	if n <= stackRobots {
		cur = initial.AppendNodes(stack.cur[:0])
	} else {
		cur = initial.AppendNodes(make([]grid.Coord, 0, n))
	}
	// curCfg is cur as a Config when the walk or the trace keeps one
	// every state, and the zero Config otherwise (built only at the
	// end). It never starts as initial; the walk copies the initial
	// state only if that state becomes a Final.
	var curCfg config.Config
	// The round scratch and the cycle set start at the first executed
	// round: on a warm store the initial state's probe splices the
	// whole run, which then costs one key and one shard probe.
	var (
		next, targets []grid.Coord
		moving        []bool
		seen          *config.PatternSet
		ownSet        config.PatternSet // the cycle set when Options.CycleSet is nil
		w             walk              // periodic memoized runs: the walk over the run's own trajectory
	)
	walking := st != nil && period > 0
	if walking {
		w = walk{maxRounds: maxRounds, stallSlack: stallSlack, initial: initial, path: make([]pathState, 0, 8)}
	}
	// round counts loop iterations, idle ones included; idle counts
	// the current streak of rounds with no movement. key is the bare
	// key of cur's pattern, set by each probe; cur does not change
	// until the next probe.
	idle := 0
	var key config.Key128
	for round := 0; ; round++ {
		if round == maxRounds {
			res.Status, res.Final = RoundLimit, configOf(curCfg, cur)
			return res
		}
		if idle == 0 && st != nil {
			var ok bool
			key, ok = config.Key128Nodes(cur)
			pkey := key
			if ok && walking {
				pkey, ok = phaseKey(key, round, period)
			}
			if !ok {
				// No exact key: the rest of the run is unmemoized.
				st, walking = nil, false
			}
			if walking {
				if r, spliced := w.visit(st, pkey, curCfg, round, res.Rounds, res.Moves); spliced {
					return r
				}
			}
			if st != nil && (!walking || period > 1) {
				// A universal no-mover fact at the bare key ends any
				// schedule (a non-periodic one, or a phased key that
				// did not).
				if out, ok := st.Load(key); ok && out.Rounds == 0 && out.Raw == 0 {
					if status, ok := stallFact(out, round, stallSlack, maxRounds); ok {
						res.Status, res.Final = status, configOf(curCfg, cur)
						return res
					}
				}
			}
		}
		if targets == nil { // robot count never changes, so n suffices
			if n <= stackRobots {
				next, targets, moving = stack.next[:0], stack.targets[:n], stack.moving[:n]
			} else {
				next, targets, moving = make([]grid.Coord, 0, n), make([]grid.Coord, n), make([]bool, n)
			}
			if opts.DetectCycles {
				if seen = opts.CycleSet; seen != nil {
					seen.Reset()
				} else {
					seen = &ownSet
				}
				seen.AddPhase(cur, 0) // the initial state sits at phase 0
			}
		}
		var active []int // nil: every robot
		if a != nil {
			active = a.Select(n, round)
		}
		full := active == nil || len(active) == n
		moved := activate(k, cur, active, targets, moving)
		if coll := step.DetectCollision(cur, targets, moving); coll != nil {
			res.Status, res.Final, res.Collision = Collision, configOf(curCfg, cur), coll
			if walking {
				w.finish(st, res, round)
			}
			return res
		}
		if moved == 0 {
			if !full && idle < idleLimit {
				idle++
				continue
			}
			res.Status, res.Final = Stalled, configOf(curCfg, cur)
			if goal(res.Final) {
				res.Status = Gathered
			}
			if walking {
				w.finish(st, res, round)
			} else if st != nil && full {
				// A full activation proved the pattern has no movers
				// under any scheduler; a long idle streak proves that
				// only for schedules known to have activated every
				// robot, which non-periodic ones cannot guarantee.
				st.Publish(key, memo.Outcome{Status: uint8(res.Status), Final: res.Final})
			}
			return res
		}
		idle = 0
		res.Rounds++
		res.Moves += moved
		cur, next = step.Successor(targets, next[:0]), cur
		curCfg = config.Config{}
		if walking || opts.RecordTrace {
			curCfg = config.FromSortedNodes(slices.Clone(cur))
		}
		if opts.RecordTrace {
			res.Trace = append(res.Trace, curCfg)
		}
		if opts.StopOnDisconnect && !step.Connected(cur) {
			res.Status, res.Final = Disconnected, configOf(curCfg, cur)
			if walking {
				w.finish(st, res, round+1)
			}
			return res
		}
		if opts.DetectCycles && (period > 0 || full) {
			// The state entering the next round is (cur, phase); a
			// repeat replays the same deterministic future forever.
			phase := 0
			if period > 1 {
				phase = (round + 1) % period
			}
			if !seen.AddPhase(cur, phase) {
				res.Status, res.Final = Livelock, configOf(curCfg, cur)
				if walking {
					// cur repeats a state the walk keyed, so its key is
					// exact.
					k, _ := config.Key128Nodes(cur)
					k, _ = phaseKey(k, round+1, period)
					w.closeCycle(st, k, round+1, res.Rounds, res.Moves)
				}
				return res
			}
		}
	}
}

// activate is the Look-Compute phase of one round: every robot of
// active (nil: every robot) decides from the sorted node set cur, and
// targets and moving (both of length len(cur)) record where each robot
// goes; the rest stay. It returns the number of movers.
func activate(k step.Kernel, cur []grid.Coord, active []int, targets []grid.Coord, moving []bool) int {
	copy(targets, cur)
	clear(moving)
	m := len(cur)
	if active != nil {
		m = len(active)
	}
	moved := 0
	for j := 0; j < m; j++ {
		i := j
		if active != nil {
			i = active[j]
		}
		if mv := k.MoveAt(cur, cur[i]); mv.IsMove() {
			targets[i] = mv.Apply(cur[i])
			moving[i] = true
			moved++
		}
	}
	return moved
}

// configOf returns cfg, or builds the Config of the sorted,
// duplicate-free nodes (a copy) when cfg is the zero Config (the loop
// did not keep one).
func configOf(cfg config.Config, nodes []grid.Coord) config.Config {
	if cfg.Len() == 0 {
		return config.FromSortedNodes(slices.Clone(nodes))
	}
	return cfg
}

// phaseKey keys the fresh state of bare key k entering loop iteration
// round under a periodic activation: period 1 (FSYNC) uses the bare
// pattern key, so FSYNC facts serve every scheduler's no-mover probe,
// and longer periods shift into phase slots 1..period so they never
// collide with bare keys. ok is false past WithPhase's range.
func phaseKey(k config.Key128, round, period int) (config.Key128, bool) {
	if period > 1 {
		return k.WithPhase(round%period + 1)
	}
	return k, true
}

// Step executes one FSYNC round through the kernel: every robot Looks,
// Computes and Moves simultaneously. It returns the next configuration,
// the number of robots that moved, and the first collision found (nil
// if the round is legal). On collision, and when nobody moves, the
// returned configuration is the unchanged input.
func Step(alg core.Algorithm, cur config.Config) (config.Config, int, *CollisionInfo) {
	nodes := cur.Nodes()
	targets, moving := make([]grid.Coord, len(nodes)), make([]bool, len(nodes))
	moved := activate(step.New(alg), nodes, nil, targets, moving)
	if coll := step.DetectCollision(nodes, targets, moving); coll != nil {
		return cur, 0, coll
	}
	if moved == 0 {
		return cur, 0, nil
	}
	return config.FromSortedNodes(step.Successor(targets, nil)), moved, nil
}
