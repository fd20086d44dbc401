package sim

import (
	"repro/internal/config"
	"repro/internal/memo"
)

// This file is the memoized branch of the run loop: the configuration-
// graph walk, cut short at the first state whose outcome the shared
// store (Options.Outcomes) already knows, with the walked
// suffix published backwards along the step.Successor edges when the
// walk reaches a terminal fact itself. FSYNC dynamics are
// deterministic, so a run's outcome — status, rounds remaining, moves
// remaining — is a pure function of its configuration; trajectories
// merge heavily (the whole n = 8 space resolves within 17 rounds), so
// across a sweep every shared suffix is paid for exactly once and a
// sweep becomes one deduplicated traversal of the configuration graph.
//
// Equivalence to the unmemoized run (Status, Rounds, Moves — the tests
// in memoized_test.go and the sweep-level equivalence tests check it
// exhaustively) rests on three guards:
//
//  1. Budget: a memoized outcome describes the unbounded run. When
//     rounds-consumed + rounds-remaining exceeds the caller's
//     MaxRounds the direct run reports RoundLimit instead, so the walk
//     refuses the splice and keeps walking — and since the sum is
//     invariant along a trajectory, every later hit refuses too, and
//     the walk reproduces the direct run's RoundLimit (publishing
//     nothing: a budget is a property of the run, not the
//     configuration). The exact comparison mirrors how the direct loop
//     charges its budget: the terminal statuses are detected *inside*
//     iteration rounds-total (so they need rounds-total < MaxRounds),
//     livelock and disconnection at the *end* of the last iteration
//     (rounds-total ≤ MaxRounds).
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
//  3. Publication is final-only and first-write-wins (the memo
//     package's contract): Status/Rounds/Moves are unique facts of the
//     pattern, so concurrent publishers agree and readers can never
//     observe a half-built fact. Final and Collision are recorded from
//     whichever translated representative published first — the one
//     deliberate divergence, documented on Options.Outcomes.

// pathState is one state of the walk's own trajectory.
type pathState struct {
	key memo.Key
	cfg config.Config
	// moves is the cumulative robot steps consumed reaching this state
	// from the walk's initial configuration.
	moves int
}

// closeCycle publishes the livelock the walk found on its own
// trajectory: the state keyed key, reached after moves robot steps,
// repeats the path state at t0, so path[t0:] are the cycle's states.
func closeCycle(st *memo.Outcomes, path []pathState, key memo.Key, moves int) {
	t0 := 0
	for path[t0].key != key {
		t0++
	}
	ci := &memo.CycleInfo{
		Len: int32(len(path) - t0), RawLen: int32(len(path) - t0),
		Moves: int32(moves - path[t0].moves), Members: make(map[memo.Key]struct{}, len(path)-t0),
	}
	for _, ps := range path[t0:] {
		ci.Members[ps.key] = struct{}{}
	}
	publishCycle(st, path, t0, ci)
}

// splice tries to end the walk at a memoized outcome for the last path
// state, returning the result the direct run would have produced. A
// false return means the outcome does not fit the remaining round
// budget (the walk must keep going).
func splice(st *memo.Outcomes, out memo.Outcome, path []pathState, maxRounds int) (Result, bool) {
	p := len(path) - 1
	status := Status(out.Status)
	if status == Livelock {
		ci := out.Cycle
		if ci == nil {
			return Result{}, false // defensive: malformed entry, treat as a miss
		}
		if out.Rounds == ci.Len {
			// On-cycle hit: find the earliest own state on this cycle —
			// the direct run's repeat happens one lap after *it*. The
			// scan always terminates: path[p], the hit itself, is a
			// member.
			t := 0
			for t < p && !ci.OnCycle(path[t].key) {
				t++
			}
			total := t + int(ci.Len)
			if total > maxRounds {
				return Result{}, false
			}
			publishCycle(st, path, t, ci)
			return Result{
				Status: Livelock, Rounds: total,
				Moves: path[t].moves + int(ci.Moves), Final: path[t].cfg,
			}, true
		}
		// Tail hit: the hit's remaining trajectory is disjoint from the
		// walk's own prefix (see the hazard note above), so the direct
		// repeat is the hit's repeat, shifted by the prefix.
		total := p + int(out.Rounds)
		if total > maxRounds {
			return Result{}, false
		}
		backfill(st, path, int(out.Rounds), int(out.Moves), memo.Outcome{Status: out.Status, Final: out.Final, Cycle: ci})
		return Result{Status: Livelock, Rounds: total, Moves: path[p].moves + int(out.Moves), Final: out.Final}, true
	}
	total := p + int(out.Rounds)
	if status == Disconnected {
		if total > maxRounds {
			return Result{}, false
		}
	} else if total >= maxRounds { // Gathered, Stalled, Collision: detected inside iteration `total`
		return Result{}, false
	}
	backfill(st, path, int(out.Rounds), int(out.Moves), memo.Outcome{Status: out.Status, Final: out.Final, Collision: out.Collision})
	return Result{
		Status: status, Rounds: total, Moves: path[p].moves + int(out.Moves),
		Final: out.Final, Collision: out.Collision,
	}, true
}

// backfill publishes an outcome for every state on the walked path:
// state i lies (last − i) Successor edges before the path's end, whose
// own remaining run is rem rounds and remMoves steps, so state i's
// outcome is the sum of the two legs. The shared terminal fields
// (Status, Final, Collision, Cycle) come from out; Rounds, Raw and
// Moves are filled per state. Republishing states that already hold
// the fact (the splice hit itself, a concurrently published suffix) is
// a first-write-wins no-op.
func backfill(st *memo.Outcomes, path []pathState, rem, remMoves int, out memo.Outcome) {
	last := len(path) - 1
	end := path[last].moves + remMoves
	for i, ps := range path {
		o := out
		o.Rounds = int32(last - i + rem)
		o.Raw = o.Rounds
		o.Moves = int32(end - ps.moves)
		st.Publish(ps.key, o)
	}
}

// publishCycle publishes livelock outcomes for a path that enters a
// cycle at index t0: path[t0:] are on the cycle (one lap from
// themselves back to themselves), path[:t0] is the tail (down to the
// entry, then one lap). ci is complete before any publication — the
// consumer-side hazard check depends on Members never being observed
// half-built.
func publishCycle(st *memo.Outcomes, path []pathState, t0 int, ci *memo.CycleInfo) {
	for _, ps := range path[t0:] {
		st.Publish(ps.key, memo.Outcome{
			Status: uint8(Livelock), Rounds: ci.Len, Raw: ci.Len,
			Moves: ci.Moves, Final: ps.cfg, Cycle: ci,
		})
	}
	for i, ps := range path[:t0] {
		st.Publish(ps.key, memo.Outcome{
			Status: uint8(Livelock),
			Rounds: int32(t0-i) + ci.Len, Raw: int32(t0-i) + ci.Len,
			Moves: int32(path[t0].moves-ps.moves) + ci.Moves,
			Final: path[t0].cfg, Cycle: ci,
		})
	}
}
