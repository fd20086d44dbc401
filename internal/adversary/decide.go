package adversary

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/sim"
)

// Options configure an Adversary.
type Options struct {
	// Alg is the algorithm under attack. Default core.Gatherer{}.
	Alg core.Algorithm
	// Goal overrides the gathering predicate. Nil selects
	// config.GoalFor over each pattern's robot count.
	Goal func(config.Config) bool
	// NoHeuristics once sent every pattern past the heuristic
	// pre-filters, which no longer exist.
	//
	// Deprecated: the solver is the only method; ignored.
	NoHeuristics bool
	// MaxStates bounds solver state creation (DefaultMaxStates if 0).
	MaxStates int
}

// VerdictKind is the per-pattern outcome of a decision.
type VerdictKind uint8

const (
	// Defeatable: a verified witness schedule prevents gathering.
	Defeatable VerdictKind = iota
	// Safe: the exact solver proved every activation schedule (that
	// keeps making progress) gathers.
	Safe
	// Undecided: no exact claim. Decide never returns it — the solver
	// decides every pattern it accepts — but report consumers keep a
	// name for the absent verdict.
	Undecided
)

var verdictNames = [...]string{Defeatable: "defeatable", Safe: "safe", Undecided: "undecided"}

// String returns the lowercase verdict name.
func (k VerdictKind) String() string {
	if int(k) < len(verdictNames) {
		return verdictNames[k]
	}
	return fmt.Sprintf("VerdictKind(%d)", uint8(k))
}

// MarshalText renders the verdict name.
func (k VerdictKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Verdict is one pattern's decision.
type Verdict struct {
	// Kind is the outcome; Witness is non-nil exactly for Defeatable.
	Kind    VerdictKind
	Witness *Witness
	// Method says what decided the pattern: always "solver".
	Method string
	// Depth is the witness strategy length (prefix + one cycle lap).
	Depth int
	// States is the number of new game states the exact solver
	// explored deciding this pattern; with the shared memo, later
	// patterns reuse earlier patterns' states, so the sum over a sweep
	// is the size of the explored game graph.
	States int
	// ReplayStatus, ReplayRounds and ReplayMoves record the verified
	// witness replay through sched.Run (for Defeatable): the concrete
	// failure status (livelock, round-limit, collision, disconnected,
	// stalled) and the rounds and robot steps it ran.
	ReplayStatus sim.Status
	ReplayRounds int
	ReplayMoves  int
}

// Adversary decides patterns with the exact memoized safety-game
// solver and replay-verifies every defeat's witness. It keeps one
// solver (and its colored game graph) across calls, so deciding a
// whole pattern space shares all state. The solver is safe for
// concurrent use, and so is an Adversary: a worker pool may call
// Decide on one Adversary from every worker.
type Adversary struct {
	opts   Options
	solver *Solver
}

// New builds an Adversary from the options.
func New(opts Options) *Adversary {
	if opts.Alg == nil {
		opts.Alg = core.Gatherer{}
	}
	return &Adversary{opts: opts, solver: NewSolver(opts.Alg, opts.Goal, opts.MaxStates)}
}

// Fork returns a shallow copy sharing the solver and its memoized game
// graph. An Adversary is safe for concurrent use, so a fork is never
// required; it stays for callers that hand each worker its own value.
func (a *Adversary) Fork() *Adversary {
	b := *a
	return &b
}

// StatesExplored returns the cumulative size of the solver's explored
// game graph.
func (a *Adversary) StatesExplored() int { return a.solver.StatesExplored() }

// MemoStats snapshots the solver store's hits/misses/created counters;
// see Solver.MemoStats.
func (a *Adversary) MemoStats() memo.Stats { return a.solver.MemoStats() }

// Decide decides one pattern. Every Defeatable verdict carries a
// witness already re-simulated through sched.Run and confirmed
// non-gathering; a witness that fails that confirmation is an error
// (it would mean the solver and the simulator disagree on the game's
// dynamics).
func (a *Adversary) Decide(initial config.Config) (Verdict, error) {
	before := a.solver.StatesExplored()
	defeatable, err := a.solver.Defeatable(initial)
	states := a.solver.StatesExplored() - before
	if err != nil {
		return Verdict{}, err
	}
	if !defeatable {
		return Verdict{Kind: Safe, Method: "solver", States: states}, nil
	}
	w, err := a.solver.witness(initial)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Kind: Defeatable, Witness: w, Method: "solver", Depth: w.Depth(), States: states}
	res, err := w.Verify(a.opts.Alg, a.opts.Goal)
	if err != nil {
		return v, err
	}
	v.ReplayStatus, v.ReplayRounds, v.ReplayMoves = res.Status, res.Rounds, res.Moves
	return v, nil
}
