// Package sim executes Look-Compute-Move robot algorithms on triangular
// grids under the fully synchronous (FSYNC) scheduler of the paper, checks
// the three collision rules of Section II-A, detects stalls, livelocks and
// disconnection, and records traces.
package sim

import (
	"fmt"

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
	// Rounds is the number of FSYNC rounds executed before the run ended
	// (the terminal round that observed "everyone stays" is not counted —
	// it changes nothing).
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
	// MaxRounds bounds the run; <= 0 selects DefaultMaxRounds.
	MaxRounds int
	// RecordTrace keeps every intermediate configuration in the Result.
	RecordTrace bool
	// DetectCycles tracks visited patterns and reports Livelock on a
	// repeat. It costs one map insertion per round and is on in the
	// verifier; runs with it off rely on MaxRounds.
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
	// CycleSet, when non-nil, is the pattern set the run uses for cycle
	// detection; Run resets it before use, so one set can be pooled
	// across many runs (every sweep worker keeps one — the cycle-set
	// maps were the largest remaining per-run allocation). It is
	// ignored when DetectCycles is false.
	CycleSet *config.PatternSet
	// Outcomes, when non-nil, is the shared configuration→outcome
	// store (internal/memo): FSYNC dynamics are deterministic, so a
	// run's outcome is a pure function of its configuration, and the
	// run becomes a walk of the configuration graph cut short at the
	// first state whose outcome is already known — with the walked
	// suffix published backwards along the step.Successor edges for
	// every later run (of the same sweep, or any sweep sharing the
	// store) to reuse. Engaged only with DetectCycles and
	// StopOnDisconnect set and RecordTrace off — the standard sweep
	// options — and ignored otherwise.
	//
	// Status, Rounds and Moves are bit-identical to the unmemoized
	// run. Final and Collision may come from a translated
	// representative of the terminal state (pattern keys are
	// translation-invariant, so a memoized suffix may have been walked
	// from a translated copy).
	//
	// The store is scoped to one (algorithm, goal) pair: outcomes are
	// facts about that deterministic dynamics, and sharing a store
	// across different algorithms or goal predicates is a caller error
	// the store cannot detect. Robot count needs no scoping — the key
	// encodes it.
	Outcomes *memo.Outcomes
}

// DefaultMaxRounds bounds runs when Options.MaxRounds is unset. Gathering
// from a connected 7-robot configuration takes tens of rounds; 10000 is
// far beyond any legitimate run.
const DefaultMaxRounds = 10000

// stackRobots is the largest robot count whose round scratch Run keeps
// on the stack; larger configurations allocate it.
const stackRobots = 16

// Run executes alg from the initial configuration under FSYNC until the
// system gathers, fails, or exhausts the round budget.
//
// There is one run loop. It holds the configuration as a reused sorted
// slice and drives every round through the shared transition kernel
// (internal/step): packed views, moves through the algorithm's memo
// table, collision and disconnection checks by index scans, cycle
// detection in a pattern set — so a steady-state round allocates
// nothing. Memoization is the one branch: with Options.Outcomes set
// (and the standard sweep options) the loop also keeps its trajectory,
// consults the store before every round, and publishes what it walked
// (memoized.go). The test-only internal/oracle package holds the
// independent map/string reference this loop must match result for
// result.
func Run(alg core.Algorithm, initial config.Config, opts Options) Result {
	k := step.New(alg)
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	goal := opts.Goal
	if goal == nil {
		goal = config.GoalFor(initial.Len())
	}
	st := opts.Outcomes
	if !opts.DetectCycles || !opts.StopOnDisconnect || opts.RecordTrace {
		st = nil // outcomes describe standard runs; a splice cannot rebuild a trace
	}
	var res Result
	if opts.RecordTrace {
		res.Trace = append(res.Trace, initial)
	}

	// Runs of up to stackRobots robots keep the round scratch on the
	// stack: a sweep makes one Run per pattern, and these buffers were
	// most of its garbage.
	var stack struct {
		cur, next, targets [stackRobots]grid.Coord
		moving             [stackRobots]bool
	}
	n := initial.Len()
	var cur []grid.Coord
	if n <= stackRobots {
		cur = initial.AppendNodes(stack.cur[:0])
	} else {
		cur = initial.AppendNodes(make([]grid.Coord, 0, n))
	}
	// curCfg is cur as a Config when the memo or the trace needs one
	// every round, and the zero Config otherwise (built only at the end).
	// Outside the memo it never starts as initial: a caller's Config may
	// be a window into a large slab (enumerate materializes whole
	// pattern lists in one), and a Final aliasing it would keep the
	// whole slab alive for as long as the Result lives.
	var curCfg config.Config
	if st != nil {
		curCfg = initial
	}
	// The round scratch and the cycle set start at the first executed
	// round: on a warm store the initial state's Load splices the whole
	// run, which then costs one key and one shard probe.
	var (
		next, targets []grid.Coord
		moving        []bool
		seen          *config.PatternSet
		key           memo.Key
		w             Walk // memoized runs: the walk over the run's own trajectory
	)
	if st != nil {
		w = Walk{maxRounds: maxRounds, path: make([]pathState, 0, 8)}
		key = memo.KeyOf(cur)
	}
	moves := 0
	for p := 0; ; p++ { // p: rounds executed so far
		if p == maxRounds {
			res.Status, res.Rounds, res.Moves, res.Final = RoundLimit, p, moves, configOf(curCfg, cur)
			return res
		}
		if st != nil {
			if r, spliced := w.Visit(st, key, curCfg, p, p, moves); spliced {
				return r
			}
		}
		if targets == nil { // robot count never grows, so n suffices
			if n <= stackRobots {
				next, targets, moving = stack.next[:0], stack.targets[:n], stack.moving[:n]
			} else {
				next, targets, moving = make([]grid.Coord, 0, n), make([]grid.Coord, n), make([]bool, n)
			}
			if opts.DetectCycles {
				if seen = opts.CycleSet; seen != nil {
					seen.Reset()
				} else {
					seen = new(config.PatternSet)
				}
				seen.AddNodes(cur)
			}
		}
		nxt, moved, coll := k.Round(cur, targets[:len(cur)], moving[:len(cur)], next[:0])
		if coll != nil {
			res.Status, res.Rounds, res.Moves, res.Final, res.Collision = Collision, p, moves, configOf(curCfg, cur), coll
			if st != nil {
				w.Finish(st, res, p)
			}
			return res
		}
		if moved == 0 {
			fin := configOf(curCfg, cur)
			status := Stalled
			if goal(fin) {
				status = Gathered
			}
			res.Status, res.Rounds, res.Moves, res.Final = status, p, moves, fin
			if st != nil {
				w.Finish(st, res, p)
			}
			return res
		}
		moves += moved
		cur, next = nxt, cur
		curCfg = config.Config{}
		if st != nil || opts.RecordTrace {
			curCfg = config.New(cur...)
		}
		if opts.RecordTrace {
			res.Trace = append(res.Trace, curCfg)
		}
		if opts.StopOnDisconnect && !step.Connected(cur) {
			res.Status, res.Rounds, res.Moves, res.Final = Disconnected, p+1, moves, configOf(curCfg, cur)
			if st != nil {
				w.Finish(st, res, p+1)
			}
			return res
		}
		if st != nil {
			key = memo.KeyOf(cur)
		}
		if opts.DetectCycles && !seen.AddNodes(cur) {
			if st != nil {
				w.CloseCycle(st, key, p+1, p+1, moves)
			}
			res.Status, res.Rounds, res.Moves, res.Final = Livelock, p+1, moves, configOf(curCfg, cur)
			return res
		}
	}
}

// configOf returns cfg, or builds the Config of the sorted nodes when
// cfg is the zero Config (the loop did not keep one).
func configOf(cfg config.Config, nodes []grid.Coord) config.Config {
	if cfg.Len() == 0 {
		return config.New(nodes...)
	}
	return cfg
}

// Step executes one FSYNC round through the kernel: every robot Looks,
// Computes and Moves simultaneously. It returns the next configuration,
// the number of robots that moved, and the first collision found (nil
// if the round is legal). On collision, and when nobody moves, the
// returned configuration is the unchanged input.
func Step(alg core.Algorithm, cur config.Config) (config.Config, int, *CollisionInfo) {
	nodes := cur.Nodes()
	next, moved, coll := step.New(alg).Round(nodes, make([]grid.Coord, len(nodes)), make([]bool, len(nodes)), nil)
	if coll != nil || moved == 0 {
		return cur, 0, coll
	}
	return config.New(next...), moved, nil
}
