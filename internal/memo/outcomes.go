package memo

import (
	"repro/internal/config"
	"repro/internal/step"
)

// Outcome is one memoized run outcome: what happens — eventually,
// regardless of round budget — to a deterministic execution that stands
// at the keyed configuration (and phase). It is the value type of the
// Outcomes store that internal/sim's run loop consults and publishes:
// its memoized walk for FSYNC and the periodic schedulers, and the
// no-mover facts every scheduler shares.
//
// An Outcomes store is scoped to one (algorithm, goal, scheduler
// semantics) triple: outcomes are facts about *that* deterministic
// dynamics. Clients create one store per sweep (or share one across
// sweeps of the same triple); mixing algorithms, goal predicates or
// schedulers in one store is a caller error the store cannot detect.
// Robot count needs no scoping — the key encodes it.
//
// Status, Rounds, Raw and Moves are translation-invariant facts of the
// keyed pattern. Final and Collision are recorded from whichever
// translated representative published the outcome first, so consumers
// report them up to translation — exactly the precision the pattern
// key itself has.
type Outcome struct {
	// Status is the run outcome as an internal/sim Status value
	// (stored as its raw uint8: sim depends on this package, not the
	// reverse). RoundLimit never appears — budget-limited runs publish
	// nothing, because a budget is a property of the run, not the
	// configuration.
	Status uint8
	// Rounds is the number of counted rounds from this state to the
	// outcome: rounds in the sim.Result sense (moving rounds; the
	// terminal all-stay observation is not counted).
	Rounds int32
	// Raw is the number of run-loop iterations consumed from this
	// state: equal to Rounds under FSYNC, larger under partial
	// activation where idle (no-move) rounds burn budget without
	// counting. Consumers use it for the round-budget splice guard. For
	// the terminal statuses it is the 0-based index of the detecting
	// iteration; for Livelock and Disconnected it is the iterations
	// consumed through detection — matching, in both cases, how the
	// unmemoized loop charges its budget.
	Raw int32
	// Moves is the number of robot steps from this state to the outcome.
	Moves int32
	// Final is the terminal configuration (a translated
	// representative): the last configuration of the run the direct
	// loop would report.
	Final config.Config
	// Collision describes the offending move when Status is Collision,
	// in the publishing representative's coordinates.
	Collision *step.CollisionInfo
	// Cycle is set exactly when Status is Livelock: the forced cycle
	// this state runs into. On-cycle states have Rounds == Cycle.Len;
	// tail states have Rounds > Cycle.Len.
	Cycle *CycleInfo
}

// CycleInfo describes one livelock cycle of the configuration graph,
// shared by the outcomes of every state that runs into it. Splicing a
// memoized on-cycle outcome into a longer run needs it: if the
// consuming run's own prefix already entered the cycle, the repeat is
// detected at the prefix's entry point, not after a full lap from the
// hit — Members lets the consumer check (see the livelock splice
// hazard in the comment atop internal/sim's memoized.go, home of the
// run loop's memoized walk).
type CycleInfo struct {
	// Len is the cycle length in counted rounds; RawLen in loop
	// iterations (equal under FSYNC).
	Len    int32
	RawLen int32
	// Moves is the robot steps of one full lap — the same from every
	// on-cycle starting point (a lap is a cyclic rotation of the same
	// rounds).
	Moves int32
	// Members holds the keys of the on-cycle states. It is complete
	// before any outcome referencing this CycleInfo is published, and
	// immutable afterwards.
	Members map[config.Key128]struct{}
}

// OnCycle reports whether the key is one of the cycle's states.
func (ci *CycleInfo) OnCycle(k config.Key128) bool {
	_, ok := ci.Members[k]
	return ok
}

// Outcomes is the configuration→outcome store: Store specialized to
// run outcomes, the currency of Spec.OutcomeMemo (internal/sweep) and
// sim.Options.Outcomes.
type Outcomes = Store[Outcome]

// NewOutcomes builds an empty outcome store.
func NewOutcomes() *Outcomes { return NewStore[Outcome]() }
