package adversary

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/step"
)

// DefeatKind classifies how a witness schedule defeats the algorithm.
type DefeatKind uint8

const (
	// KindCycle: replaying Cycle forever revisits the same pattern
	// sequence — a forced livelock.
	KindCycle DefeatKind = iota
	// KindCollision: the final activation violates a §II-A collision rule.
	KindCollision
	// KindDisconnection: the final activation splits the configuration.
	KindDisconnection
	// KindStall: after the prefix no robot wants to move and the
	// configuration is not gathered — stuck forever under any schedule.
	KindStall
)

var kindNames = [...]string{
	KindCycle:         "cycle",
	KindCollision:     "collision",
	KindDisconnection: "disconnection",
	KindStall:         "stall",
}

// String returns the lowercase kind name.
func (k DefeatKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("DefeatKind(%d)", uint8(k))
}

// MarshalText renders the kind name (for the JSONL verdict streams).
func (k DefeatKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Witness is a concrete defeating schedule: activation subsets, round
// by round, that prevent gathering from Initial. Subsets are indices
// into the round's sorted node list — exactly the contract of
// sched.Scheduler.Select — and every recorded subset activates at
// least one mover, so round r of a replay is transition r of the
// witness. Replay it with Scheduler (any sched.Run caller) or check it
// end-to-end with Verify.
type Witness struct {
	// Initial is the pattern being defeated.
	Initial config.Config
	// Prefix is the stem: subsets driving the play from Initial to the
	// failure (for terminal kinds, the last subset triggers it).
	Prefix [][]int
	// Cycle is the loop replayed forever after the prefix; non-empty
	// exactly for KindCycle. The configuration pattern after the
	// prefix recurs after every full replay of Cycle.
	Cycle [][]int
	// Kind says how the schedule defeats the algorithm.
	Kind DefeatKind
}

// Depth is the length of the witness strategy: prefix plus one cycle
// lap — the number of adversary decisions it takes to exhibit the
// defeat.
func (w *Witness) Depth() int { return len(w.Prefix) + len(w.Cycle) }

// Status maps the defeat kind onto the simulator's outcome taxonomy:
// a forced cycle is a livelock, the terminal kinds are themselves.
// (A replay of a cycle witness reports round-limit once its budget
// runs out — the cycle itself never ends the run — so the kind, not
// the replay, is the exact classification.)
func (w *Witness) Status() sim.Status {
	switch w.Kind {
	case KindCollision:
		return sim.Collision
	case KindDisconnection:
		return sim.Disconnected
	case KindStall:
		return sim.Stalled
	default:
		return sim.Livelock
	}
}

// Scheduler returns the sched.Scheduler that replays the witness: the
// prefix subsets in order, then the cycle forever; witnesses without a
// cycle fall back to full activation (for KindStall that lets sched.Run
// decide the stall immediately; for terminal kinds the run is already
// over). The scheduler is stateless and reusable across runs.
func (w *Witness) Scheduler() sched.Scheduler { return replaySched{w: w} }

type replaySched struct{ w *Witness }

// Name implements sched.Scheduler.
func (replaySched) Name() string { return "adv-replay" }

// Select implements sched.Scheduler: the witness's own recorded
// subsets, and sched.Everyone's shared full activation once a witness
// without a cycle runs out, which lets sched.Run decide a stall on the
// spot.
func (r replaySched) Select(n, round int) []int {
	if round < len(r.w.Prefix) {
		return r.w.Prefix[round]
	}
	if len(r.w.Cycle) > 0 {
		return r.w.Cycle[(round-len(r.w.Prefix))%len(r.w.Cycle)]
	}
	return sched.Everyone(n)
}

// Verify re-simulates the witness through the ordinary sched/sim
// machinery and confirms the defeat: the run must not gather, the
// outcome must match the witness kind, and for cycle witnesses the
// trace must actually close (the pattern after the prefix recurs after
// one cycle lap — which proves the replayed schedule loops forever).
// A nil goal selects config.GoalFor. It returns the replayed result so
// callers can report the concrete failure status.
func (w *Witness) Verify(alg core.Algorithm, goal func(config.Config) bool) (sim.Result, error) {
	budget := len(w.Prefix) + 2*len(w.Cycle) + 8
	res := sched.Run(alg, w.Initial, w.Scheduler(), sim.Options{
		MaxRounds:        budget,
		RecordTrace:      true,
		DetectCycles:     true,
		StopOnDisconnect: true,
		Goal:             goal,
	})
	if res.Status == sim.Gathered {
		return res, fmt.Errorf("adversary: witness for %s gathered on replay", w.Initial.Key())
	}
	switch w.Kind {
	case KindCollision:
		if res.Status != sim.Collision {
			return res, fmt.Errorf("adversary: collision witness replayed as %v", res.Status)
		}
	case KindDisconnection:
		if res.Status != sim.Disconnected {
			return res, fmt.Errorf("adversary: disconnection witness replayed as %v", res.Status)
		}
	case KindStall:
		if res.Status != sim.Stalled {
			return res, fmt.Errorf("adversary: stall witness replayed as %v", res.Status)
		}
	case KindCycle:
		lap := len(w.Prefix) + len(w.Cycle)
		// Every witness round moves at least one robot, so trace index
		// r is the configuration after r rounds.
		if len(res.Trace) <= lap {
			return res, fmt.Errorf("adversary: cycle witness replay ended after %d rounds (%v), need %d",
				len(res.Trace)-1, res.Status, lap)
		}
		if !res.Trace[len(w.Prefix)].SamePattern(res.Trace[lap]) {
			return res, fmt.Errorf("adversary: cycle witness for %s does not close", w.Initial.Key())
		}
	}
	return res, nil
}

// witness reconstructs a defeating schedule from the solver's stored
// winning choices: walk from the initial state, at each defeated state
// replay its stored activation subset, and stop at a terminal failure
// or when a pattern recurs (closing the cycle). Solve must already
// have decided the pattern defeated. Under concurrent solving a choice
// may point at a state another search defeated via a back edge but has
// not yet published (its defeat propagates up that search's stack); the
// walk then solves the state itself — the verdict is unique and the
// stored choices deterministic, so the reconstructed witness is the
// same whichever search publishes first.
func (s *Solver) witness(initial config.Config) (*Witness, error) {
	w := &Witness{Initial: initial}
	nodes := initial.Nodes()
	seen := map[config.Key128]int{}
	var schedule [][]int
	for {
		key := stateKey(nodes)
		if at, ok := seen[key]; ok {
			w.Prefix = schedule[:at]
			w.Cycle = schedule[at:]
			w.Kind = KindCycle
			return w, nil
		}
		seen[key] = len(schedule)
		v, ok := s.memo.Load(key)
		if !ok {
			// In-flight elsewhere: decide it here (see above).
			if c := s.decide(nodes, newSearch(s)); c != defeated {
				return nil, fmt.Errorf("adversary: internal: witness walk reached %v state %s", c, patternKey(nodes))
			}
			if v, ok = s.memo.Load(key); !ok {
				return nil, fmt.Errorf("adversary: internal: witness walk solved unpublished state %s", patternKey(nodes))
			}
		}
		if v.color != defeated {
			return nil, fmt.Errorf("adversary: internal: witness walk reached %v state %s", v.color, patternKey(nodes))
		}
		n := len(nodes)
		var moves [MaxRobots]core.Move
		movers := step.Mask(s.expand(nodes, moves[:n]))
		if movers == 0 {
			if s.goal(config.New(nodes...)) {
				return nil, fmt.Errorf("adversary: internal: witness walk reached gathered %s", patternKey(nodes))
			}
			w.Prefix = schedule
			w.Kind = KindStall
			return w, nil
		}
		sub := v.choice
		if sub&movers != sub || sub == 0 {
			return nil, fmt.Errorf("adversary: internal: stored choice %#x is not a mover subset at %s", sub, patternKey(nodes))
		}
		schedule = append(schedule, sub.Indices())
		next, outcome := step.Apply(nodes, moves[:n], sub, make([]grid.Coord, 0, n))
		switch outcome {
		case step.Collided:
			w.Prefix = schedule
			w.Kind = KindCollision
			return w, nil
		case step.Disconnected:
			w.Prefix = schedule
			w.Kind = KindDisconnection
			return w, nil
		}
		nodes = next
	}
}

// patternKey renders a state's canonical string key for error messages.
func patternKey(nodes []grid.Coord) string { return config.New(nodes...).Key() }
