// Package adversary decides, exactly, whether an SSYNC adversary can
// prevent gathering from a given initial pattern — the adversarial
// counterpart of the probabilistic robustness sweeps (E8/E12), and the
// subsystem behind experiments E13 (n = 7) and E14 (n = 8).
//
// # The game
//
// One round of SSYNC execution is an adversary move followed by a
// deterministic algorithm step: the adversary activates any non-empty
// subset of the robots, each activated robot Looks, Computes and Moves
// simultaneously, the rest keep their positions. Because the algorithm
// is oblivious and deterministic, the adversary is the only player —
// defeasibility is reachability in the directed graph whose vertices
// are configuration patterns and whose edges are activation choices.
//
// Activating a robot whose computed move is "stay" changes nothing, so
// every activation subset acts exactly like its intersection with the
// movers (the robots whose Compute returns a step). The solver
// therefore branches only over the non-empty subsets of the movers —
// at most 2^n − 1 choices, usually far fewer — which quotients away
// the no-op rounds an adversary could otherwise waste forever. (An
// adversary that plays no-ops forever while movers exist starves a
// robot that wants to move and is trivially unfair; it is excluded by
// construction.)
//
// The adversary wins from a state iff it can force a play that never
// reaches the gathered goal:
//
//   - a collision (§II-A rules) or a disconnection is a terminal
//     failure — the adversary wins immediately;
//   - a state with no movers is terminal: the algorithm is stuck, so
//     the adversary wins iff the state is not gathered (a stall);
//   - reaching any configuration twice is a win — the adversary
//     replays the closing segment forever (a forced livelock);
//   - otherwise the adversary needs some choice whose successor it
//     wins; the protagonist has no moves, so a state is safe iff
//     every choice leads to a safe successor.
//
// Cycle wins include schedules that permanently starve some movers;
// whether every such defeat survives a strict per-robot fairness
// requirement is an open refinement recorded in the ROADMAP (the
// centralized CENT defeats, which the solver subsumes, are fair, so
// fairness does not rescue the algorithm wholesale).
//
// # Why this is tractable
//
// Collisions and disconnections are terminal, so every non-terminal
// state is a connected pattern of exactly n distinct nodes — for n = 7
// the entire game graph has at most 3652 vertices, for n = 8 at most
// 16689. States are keyed by the compact translation-invariant
// config.Key128, exact for every state of the game (stateKey), and the
// solver memoizes verdicts across patterns: deciding a whole space
// shares one table, so most root solves are lookups into a game graph
// already colored.
//
// The game dynamics themselves — look→compute→move, the collision
// rules, the disconnection check — are the shared transition kernel
// (internal/step): the solver and the sched/sim replay machinery
// execute the identical step, so the game and the simulator cannot
// drift apart.
//
// # Concurrency
//
// The memo is internal/memo's lock-free store, and verdicts are
// published only once final, so a Solver is safe for concurrent use:
// any number of goroutines may call Defeatable (or Adversary.Decide)
// against one shared game graph.
// Each search keeps its DFS path private — a back edge is a cycle only
// on the searcher's own stack — and duplicated in-flight work between
// workers resolves to identical published verdicts: the game's value
// is unique, and the stored winning choice is the first defeating
// activation subset in the fixed descending enumeration order, which
// no interleaving can change. That makes witnesses deterministic
// across worker counts; only the per-pattern new-state counts depend
// on scheduling.
//
// The solver is a three-color DFS: a back edge to a state on the
// current search's stack is a forceable cycle (defeat), a terminal
// failure is a defeat, any defeated successor is a defeat, and a state
// is safe only when every choice has been shown safe. Each defeated
// state stores its winning activation subset, so a winning strategy —
// and from it a concrete witness schedule (Witness) — is read back by
// walking the stored choices until the play hits a terminal failure or
// closes a cycle. Witnesses replay through the ordinary sched/sim
// machinery (Witness.Scheduler is a sched.Scheduler), so every defeat
// the solver claims is re-simulatable and independently confirmed.
package adversary

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/step"
)

// MaxRobots is the largest robot count the solver accepts — the
// config.Key128 exact-key envelope, inside which every game state has
// an exact key (stateKey). Past it the 2^n branching would stop being
// a game anyone should solve exhaustively anyway.
const MaxRobots = config.MaxKeyNodes

// color is the search state of one game vertex.
type color uint8

const (
	// unknown: not yet decided (never stored in the memo).
	unknown color = iota
	// gray: on the current search's own DFS stack; an edge into a gray
	// state is a back edge, i.e. a forceable cycle. Gray is a private,
	// in-flight color — the shared memo stores only final verdicts.
	gray
	// safe: every adversary choice from here leads to gathering.
	safe
	// defeated: the adversary wins from here; choice holds the move.
	defeated
	// aborted is never stored; it is the in-flight result color when
	// the state budget is exhausted mid-solve.
	aborted
)

// verdict is one final, memoized game verdict: the color (safe or
// defeated only) and, for defeats, the winning activation subset over
// the state's sorted robot indices (zero for a terminal stall).
type verdict struct {
	color  color
	choice step.Mask
}

// The verdict store is the shared lock-free publish-once machinery of
// internal/memo — originally grown here, now extracted so the FSYNC
// outcome memo (internal/sim, internal/sweep) and the scheduler
// rollouts (internal/sched) ride the identical store. Verdicts are
// published only once final — in-flight (gray) states never enter —
// so readers either miss (and solve locally) or see a complete,
// immutable verdict; first-write-wins publication is benign because
// concurrent publishers hold identical verdicts (see the package
// comment).

// Solver decides the safety game for one algorithm and goal. Verdicts
// are memoized across calls — deciding many patterns of the same space
// shares one colored game graph — so a Solver is the unit of reuse a
// sweep should hold on to. It is safe for concurrent use: the memo is
// a lock-free store, and every search keeps its own DFS stack.
type Solver struct {
	k    step.Kernel
	goal func(config.Config) bool

	// maxStates bounds the number of distinct game states created; the
	// n = 8 space has 16689, so the default (DefaultMaxStates) is only
	// a guard against runaway larger-n solves.
	maxStates int

	memo *memo.Store[verdict]
}

// DefaultMaxStates bounds solver state creation when Options leave it
// unset. The full n = 9 connected space is 77359 patterns; 2^22 leaves
// room far past any workload this repo runs.
const DefaultMaxStates = 1 << 22

// NewSolver builds a solver for the algorithm under the given goal
// predicate. A nil goal selects config.GoalFor over each state's robot
// count (robot count is invariant during a game — collisions are
// terminal). maxStates <= 0 selects DefaultMaxStates.
func NewSolver(alg core.Algorithm, goal func(config.Config) bool, maxStates int) *Solver {
	if alg == nil {
		alg = core.Gatherer{}
	}
	if goal == nil {
		goal = func(c config.Config) bool { return config.GoalFor(c.Len())(c) }
	}
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	return &Solver{
		k:         step.New(alg),
		goal:      goal,
		maxStates: maxStates,
		memo:      memo.NewStore[verdict](),
	}
}

// StatesExplored returns the cumulative number of distinct game states
// decided across every solve so far (by every goroutine sharing the
// solver).
func (s *Solver) StatesExplored() int { return int(s.memo.Created()) }

// MemoStats snapshots the shared game-state store's cumulative
// counters: distinct states created, lookup hits, lookup misses. Hits
// measure the cross-pattern sharing the memoization exists for (later
// patterns re-entering earlier patterns' subgames).
func (s *Solver) MemoStats() memo.Stats { return s.memo.Stats() }

// Defeatable decides whether the adversary wins from the initial
// configuration. It errors on inputs outside the game's domain: more
// than MaxRobots robots, a disconnected initial pattern (the paper's
// space is adjacency-connected; disconnection inside a game is a
// terminal failure, but a run cannot meaningfully start there), or a
// solve that exhausts the state budget. Safe for concurrent use.
func (s *Solver) Defeatable(initial config.Config) (bool, error) {
	if initial.Len() == 0 || initial.Len() > MaxRobots {
		return false, fmt.Errorf("adversary: %d robots outside the solver envelope [1,%d]", initial.Len(), MaxRobots)
	}
	if !initial.Connected() {
		return false, fmt.Errorf("adversary: initial pattern %s is disconnected", initial.Key())
	}
	nodes := initial.Nodes()
	c := s.decide(nodes, newSearch(s))
	switch c {
	case safe:
		return false, nil
	case defeated:
		return true, nil
	case aborted:
		return false, fmt.Errorf("adversary: state budget (%d) exhausted solving %s", s.maxStates, initial.Key())
	}
	return false, fmt.Errorf("adversary: internal: unresolved color %d for %s", c, initial.Key())
}

// decide returns the final color of a state: the published verdict if
// one exists, otherwise a fresh solve through the given search.
func (s *Solver) decide(nodes []grid.Coord, g *search) color {
	key := stateKey(nodes)
	if v, ok := s.memo.Load(key); ok {
		return v.color
	}
	return g.solve(nodes, key)
}

// search is one goroutine's in-flight DFS: its private stack
// membership. Searches sharing a Solver share its memo and nothing
// else, which is what makes concurrent solving sound — a back edge is
// a forceable cycle only against the searcher's own path.
type search struct {
	s      *Solver
	onPath map[config.Key128]struct{}
}

func newSearch(s *Solver) *search {
	return &search{s: s, onPath: make(map[config.Key128]struct{})}
}

// stateKey is the store key of a game state. Every state is a
// connected pattern (disconnection is terminal, and Defeatable refuses
// a disconnected start) of at most MaxRobots robots, so its spread is
// below 15 and its Key128 is exact by construction.
func stateKey(nodes []grid.Coord) config.Key128 {
	k, _ := config.Key128Nodes(nodes)
	return k
}

// expand computes the per-robot decisions of a state through the
// shared kernel: the move of each robot and the bitmask of movers.
// nodes must be sorted by Q then R.
func (s *Solver) expand(nodes []grid.Coord, moves []core.Move) uint16 {
	s.k.Moves(nodes, moves)
	return uint16(step.MoverMask(moves))
}

// solve colors an undecided state by depth-first search and publishes
// the final verdict. It returns safe or defeated — or aborted (budget
// exhausted), publishing nothing, so a later larger-budget solve can
// retry. Recursion depth is bounded by the number of states (16689 for
// the full n = 8 game), well within Go's growable stacks.
func (g *search) solve(nodes []grid.Coord, key config.Key128) color {
	s := g.s
	if int(s.memo.Created())+len(g.onPath) > s.maxStates {
		return aborted
	}
	g.onPath[key] = struct{}{}
	defer delete(g.onPath, key)
	n := len(nodes)
	var moves [MaxRobots]core.Move
	movers := step.Mask(s.expand(nodes, moves[:n]))
	if movers == 0 {
		// Terminal: no activation changes anything. Gathered is the
		// protagonist's goal; anything else is a stall the adversary
		// holds forever (activating everyone each round keeps even a
		// per-robot fairness requirement satisfied).
		v := verdict{color: defeated}
		if s.goal(config.New(nodes...)) {
			v = verdict{color: safe}
		}
		s.memo.Publish(key, v)
		return v.color
	}
	// Enumerate the non-empty subsets of the movers (standard submask
	// walk, descending from the full mover set — so the FSYNC-like
	// full activation, which usually heads straight to gathering, is
	// explored first and safe regions close quickly).
	for sub := movers; sub != 0; sub = (sub - 1) & movers {
		next, outcome := step.Apply(nodes, moves[:n], sub, make([]grid.Coord, 0, n))
		if outcome != step.OK {
			// Collision or disconnection: terminal failure, adversary wins.
			s.memo.Publish(key, verdict{color: defeated, choice: sub})
			return defeated
		}
		ckey := stateKey(next)
		var cc color
		if v, ok := s.memo.Load(ckey); ok {
			cc = v.color
		} else if _, on := g.onPath[ckey]; on {
			// Back edge: the successor sits on this search's own path,
			// so the adversary can replay the closing segment forever.
			cc = gray
		} else {
			cc = g.solve(next, ckey)
		}
		switch cc {
		case gray, defeated:
			// A defeated successor — or a forceable cycle, which
			// defeats every state on it as the recursion unwinds.
			s.memo.Publish(key, verdict{color: defeated, choice: sub})
			return defeated
		case aborted:
			return aborted
		}
	}
	s.memo.Publish(key, verdict{color: safe})
	return safe
}
