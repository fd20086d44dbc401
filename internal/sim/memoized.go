package sim

import (
	"repro/internal/config"
	"repro/internal/memo"
)

// This file is the memoized configuration-graph walk ("tier B"), a
// private branch of the one run loop (sim.go) for FSYNC and every
// Periodic activation: a run cut short at the first state whose
// outcome the shared store (Options.Outcomes) already knows, with the
// walked suffix published backwards along the run's own trajectory
// when the walk reaches a terminal fact itself. A deterministic run's
// outcome — status, rounds remaining, moves remaining — is a pure
// function of its state; trajectories merge heavily (the whole n = 8
// FSYNC space resolves within 17 rounds), so across a sweep every
// shared suffix is paid for exactly once and a sweep becomes one
// deduplicated traversal of the configuration graph.
//
// The walk records the run's fresh states: under FSYNC every state,
// under a longer period the states entered with no idle streak (the
// initial state and every state just after a moving round). Each
// carries the loop iterations (raw), counted rounds and robot steps
// consumed reaching it. Under FSYNC raw == rounds == the state's path
// index; under partial activation idle iterations burn budget without
// counting as rounds, so every budget guard compares raw iterations
// (Outcome.Raw, CycleInfo.RawLen) against MaxRounds while the spliced
// Result reports counted rounds and moves. Keys are the bare pattern
// key under period 1 and the phase-folded key (config.Key128.WithPhase)
// under a longer period (phaseKey).
//
// Runs under a non-periodic activation (seeded SSYNC schedules) do not
// walk: their future is not a function of the state. They share only
// no-mover facts ("tier A") — published at the bare key when a full
// activation moves nobody, consumed through stallFact — and so do
// periodic runs whose phased key misses.
//
// Equivalence to the unmemoized run (Status, Rounds, Moves — the tests
// in memoized_test.go, internal/sched's memo_test.go and the sweep-
// level equivalence tests check it exhaustively) rests on four guards:
//
//  1. Budget: a memoized outcome describes the unbounded run. When
//     iterations-consumed + iterations-remaining exceeds the caller's
//     MaxRounds the direct run reports RoundLimit instead, so the walk
//     refuses the splice and keeps walking — and since the sum is
//     invariant along a trajectory, every later hit refuses too, and
//     the walk reproduces the direct run's RoundLimit (publishing
//     nothing: a budget is a property of the run, not the
//     configuration). The exact comparison mirrors how the direct loop
//     charges its budget: the terminal statuses are detected *inside*
//     iteration raw-total (so they need raw-total < MaxRounds),
//     livelock and disconnection at the *end* of the last iteration
//     (raw-total ≤ MaxRounds).
//
//  2. Livelock splice hazard: the direct run detects a livelock at the
//     first repeat in its *own* trajectory. Splicing a memoized
//     on-cycle outcome (rounds-remaining == cycle length) is wrong
//     when the walk's own prefix already entered that cycle — then the
//     direct repeat happens at the prefix's entry point, a full lap
//     earlier than hit-position + lap. The published CycleInfo carries
//     the cycle's member keys, so the walk finds the earliest own
//     prefix state on the cycle and splices from there. (Single-
//     threaded this cannot happen — a whole cycle publishes at once,
//     so the walk would have hit the entry state first — but a
//     concurrent walk can observe another worker's partially published
//     cycle.) Tail outcomes (rounds-remaining > cycle length) and
//     terminal outcomes need no such check: a shared state between the
//     walk's prefix and the hit's remaining trajectory would place the
//     hit state on a cycle through that state, contradicting
//     determinism of the terminal (or its own tail).
//
//  3. Stall facts: an outcome with Rounds == 0 (nobody moves from the
//     state again) may have been published under other dynamics — a
//     seeded SSYNC schedule's full-activation proof — whose idle
//     resolution ran a different number of iterations, so its Raw is
//     only trusted when every robot is activated each round and an
//     all-stay round decides at once. Under partial activation the
//     splice uses stallFact's conservative guard instead: the
//     remaining budget must cover the loop's worst-case idle
//     resolution (stallSlack). A refused splice just keeps walking —
//     never wrong, only slower.
//
//  4. Publication is final-only and first-write-wins (the memo
//     package's contract): Status/Rounds/Moves are unique facts of the
//     state, so concurrent publishers agree and readers can never
//     observe a half-built fact. Final and Collision are recorded from
//     whichever translated representative published first — the one
//     deliberate divergence, documented on Options.Outcomes.

// walk is one memoized run's walk: its own trajectory of fresh states,
// consulted against and published into a shared outcome store. The
// loop calls visit at every fresh state and, when the run ends on its
// own, finish or closeCycle, passing the same store each time. (The
// store is an argument, not a field: escape analysis cannot tell a
// struct's fields apart, and a store field would push the path's
// initial buffer off the loop's stack.) A walk serves one run.
type walk struct {
	maxRounds int
	// stallSlack is the most idle iterations the loop can spend
	// deciding a state from which no robot moves (guard 3): 0 when
	// every robot is activated each round, the loop's idle threshold
	// under partial activation.
	stallSlack int
	// initial is the caller's initial configuration. The initial
	// state's path entry keeps no Config of its own; cfgAt copies this
	// one the first time that state becomes a Final.
	initial config.Config
	path    []pathState
}

// pathState is one fresh state of the walk's own trajectory.
type pathState struct {
	key config.Key128
	// cfg is the state's configuration, zero for the initial state
	// until cfgAt copies it.
	cfg config.Config
	// raw, rounds and moves are the loop iterations, counted rounds
	// and robot steps consumed reaching this state from the run's
	// initial configuration.
	raw, rounds, moves int
}

// visit records the fresh state keyed key — cfg, entering loop
// iteration raw after rounds counted rounds and moves robot steps —
// and tries to end the run at st's outcome for it. On a splice it
// returns the result the direct run would have produced and true;
// false means the loop keeps running (a miss, or an outcome that does
// not fit the remaining budget).
func (w *walk) visit(st *memo.Outcomes, key config.Key128, cfg config.Config, raw, rounds, moves int) (Result, bool) {
	// Grow by hand, then reslice: `w.path = append(w.path, …)` through
	// the pointer would push the loop's initial path buffer to the heap.
	if len(w.path) == cap(w.path) {
		w.path = append(make([]pathState, 0, 2*cap(w.path)+8), w.path...)
	}
	w.path = w.path[:len(w.path)+1]
	w.path[len(w.path)-1] = pathState{key: key, cfg: cfg, raw: raw, rounds: rounds, moves: moves}
	if out, ok := st.Load(key); ok {
		return w.splice(st, out)
	}
	return Result{}, false
}

// cfgAt returns path state i's configuration, copying the caller's
// initial configuration for the initial state: a published or
// returned Final must not keep a caller's slab alive.
func (w *walk) cfgAt(i int) config.Config {
	if w.path[i].cfg.Len() == 0 {
		w.path[i].cfg = config.FromSortedNodes(w.initial.Nodes())
	}
	return w.path[i].cfg
}

// splice tries to end the walk at a memoized outcome for the last path
// state under the guards of the file comment.
func (w *walk) splice(st *memo.Outcomes, out memo.Outcome) (Result, bool) {
	last := w.path[len(w.path)-1]
	status := Status(out.Status)
	switch status {
	case Livelock:
		ci := out.Cycle
		if ci == nil {
			return Result{}, false // defensive: malformed entry, treat as a miss
		}
		if out.Rounds == ci.Len {
			// On-cycle hit: find the earliest own state on this cycle —
			// the direct run's repeat happens one lap after *it*. The
			// scan always terminates: the hit itself is a member.
			t := 0
			for t < len(w.path)-1 && !ci.OnCycle(w.path[t].key) {
				t++
			}
			entry := w.path[t]
			if entry.raw+int(ci.RawLen) > w.maxRounds {
				return Result{}, false
			}
			w.publishCycle(st, t, ci)
			return Result{
				Status: Livelock, Rounds: entry.rounds + int(ci.Len),
				Moves: entry.moves + int(ci.Moves), Final: w.cfgAt(t),
			}, true
		}
		// Tail hit: the hit's remaining trajectory is disjoint from the
		// walk's own prefix (see the hazard note above), so the direct
		// repeat is the hit's repeat, shifted by the prefix.
		if last.raw+int(out.Raw) > w.maxRounds {
			return Result{}, false
		}
	case Disconnected:
		if last.raw+int(out.Raw) > w.maxRounds {
			return Result{}, false
		}
	default: // Gathered, Stalled, Collision: detected inside iteration raw-total
		if w.stallSlack > 0 && out.Rounds == 0 && out.Collision == nil {
			status, ok := stallFact(out, last.raw, w.stallSlack, w.maxRounds)
			if !ok {
				return Result{}, false
			}
			return Result{Status: status, Rounds: last.rounds, Moves: last.moves, Final: w.cfgAt(len(w.path) - 1)}, true
		}
		if last.raw+int(out.Raw) >= w.maxRounds {
			return Result{}, false
		}
	}
	r := Result{
		Status: status, Rounds: last.rounds + int(out.Rounds), Moves: last.moves + int(out.Moves),
		Final: out.Final, Collision: out.Collision,
	}
	w.backfill(st, r, last.raw+int(out.Raw), out.Cycle)
	return r, true
}

// stallFact reports whether a run standing at a state after raw loop
// iterations can end at out, a stall fact for the state: a gathered or
// stalled outcome with Rounds == 0, so no robot ever moves again and
// the result is the run so far with the fact's status, which it
// returns. The fact's Raw is not trusted (guard 3 of the file comment):
// the splice needs the remaining budget to cover slack idle iterations
// of the loop's own resolution. Nothing is published: the run's exact
// Raw would need the resolution length under *its* dynamics, which the
// fact does not carry.
func stallFact(out memo.Outcome, raw, slack, maxRounds int) (Status, bool) {
	status := Status(out.Status)
	return status, (status == Gathered || status == Stalled) && raw+slack < maxRounds
}

// finish publishes into st the run's own end r — Collision, Gathered, Stalled
// or Disconnected — detected after raw loop iterations, for every
// state on the path. The disconnected state itself gets no outcome: a
// run starting there would step before noticing the split, which is a
// different fact from "ends here, disconnected".
func (w *walk) finish(st *memo.Outcomes, r Result, raw int) { w.backfill(st, r, raw, nil) }

// backfill publishes the outcome of a run ending at r after endRaw
// loop iterations for every path state: state i's remaining run is the
// difference between the end's cumulative budgets and its own. The
// shared terminal fields (Status, Final, Collision, Cycle) come from r
// and ci. Republishing states that already hold the fact (the splice
// hit itself, a concurrently published suffix) is a first-write-wins
// no-op.
func (w *walk) backfill(st *memo.Outcomes, r Result, endRaw int, ci *memo.CycleInfo) {
	for _, ps := range w.path {
		st.Publish(ps.key, memo.Outcome{
			Status: uint8(r.Status), Rounds: int32(r.Rounds - ps.rounds),
			Raw: int32(endRaw - ps.raw), Moves: int32(r.Moves - ps.moves),
			Final: r.Final, Collision: r.Collision, Cycle: ci,
		})
	}
}

// closeCycle publishes into st the livelock the walk found on its own
// trajectory: the state keyed key, reached after raw iterations,
// rounds counted rounds and moves robot steps, repeats a path state,
// and the path from that state on is the cycle.
func (w *walk) closeCycle(st *memo.Outcomes, key config.Key128, raw, rounds, moves int) {
	t0 := 0
	for w.path[t0].key != key {
		t0++
	}
	entry := w.path[t0]
	ci := &memo.CycleInfo{
		Len: int32(rounds - entry.rounds), RawLen: int32(raw - entry.raw),
		Moves: int32(moves - entry.moves), Members: make(map[config.Key128]struct{}, len(w.path)-t0),
	}
	for _, ps := range w.path[t0:] {
		ci.Members[ps.key] = struct{}{}
	}
	w.publishCycle(st, t0, ci)
}

// publishCycle publishes livelock outcomes for a path that enters a
// cycle at index t0: path[t0:] are on the cycle (one lap from
// themselves back to themselves — a lap's rounds, iterations and moves
// are rotation-invariant sums), path[:t0] is the tail (down to the
// entry, then one lap). ci is complete before any publication — the
// consumer-side hazard check depends on Members never being observed
// half-built.
func (w *walk) publishCycle(st *memo.Outcomes, t0 int, ci *memo.CycleInfo) {
	for i := t0; i < len(w.path); i++ {
		st.Publish(w.path[i].key, memo.Outcome{
			Status: uint8(Livelock), Rounds: ci.Len, Raw: ci.RawLen,
			Moves: ci.Moves, Final: w.cfgAt(i), Cycle: ci,
		})
	}
	entry := w.path[t0]
	for _, ps := range w.path[:t0] {
		st.Publish(ps.key, memo.Outcome{
			Status: uint8(Livelock),
			Rounds: int32(entry.rounds-ps.rounds) + ci.Len,
			Raw:    int32(entry.raw-ps.raw) + ci.RawLen,
			Moves:  int32(entry.moves-ps.moves) + ci.Moves,
			Final:  w.cfgAt(t0), Cycle: ci,
		})
	}
}
