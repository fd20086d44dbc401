package sched

import (
	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/step"
)

// This file is sched.Run's client of the shared outcome store
// (internal/memo) — the scheduler-side analog of internal/sim's
// memoized walk. Two regimes share the store:
//
// Tier B — deterministic periodic non-adaptive schedulers (Periodic,
// e.g. FSYNC and RoundRobin). The execution state is (pattern, round
// mod period) plus the idle counter; states entered fresh (idle == 0:
// the initial state and every state just after a moving round) are
// pure restart points, so their outcomes are facts of the scheduler's
// deterministic dynamics and the run is a memoized graph walk exactly
// like internal/sim's: consult at every fresh state, splice when the
// remaining budget provably fits, publish the walked suffix backwards
// on every terminal. The differences from the FSYNC walk are bookkept,
// not structural:
//
//   - Keys carry the phase (memo.Key.WithPhase). Period-1 schedulers
//     (FSYNC) use the bare pattern key — their dynamics are the
//     simulator's, so they interoperate with sim-published outcomes in
//     one store. Schedulers with period > 1 shift phases into slots
//     1..period so their keys can never collide with the bare keys;
//     different periodic schedulers must still not share a store
//     (their phase slots would collide with each other).
//
//   - Idle rounds are real loop iterations that burn the round budget
//     without counting as rounds (Result.Rounds counts moving rounds
//     only). Outcome.Raw carries the iteration count, Outcome.Rounds
//     the counted rounds; every budget guard compares Raw against
//     MaxRounds while the spliced Result reports Rounds/Moves.
//
//   - An Outcome with Rounds == 0 (a stall fact) may have been
//     published under different dynamics (see tier A), whose idle
//     resolution ran a different number of iterations, so its Raw is
//     not trusted: the splice uses the conservative guard that the
//     remaining budget covers the direct loop's worst-case stall
//     resolution (4·n idle iterations, the loop's own threshold).
//     A refused splice just keeps walking — never wrong, only slower.
//
// Tier A — everything else: seeded random SSYNC schedulers, adversary
// witness replays. Future activations are not a function
// of the state, so per-run outcomes are not facts of the pattern and
// almost nothing can be shared. The one exception is schedule-
// independent: if no robot moves under a *full* activation, the
// pattern has no movers at all (a robot's move decision depends only
// on its view), so every scheduler resolves it identically — gathered
// or stalled by the goal predicate, zero further rounds and moves.
// Tier A publishes that fact at the bare pattern key when a full
// activation proves it (Rounds == 0, Raw == 0) and splices only such
// entries, under the same conservative 4·n budget guard. That is
// enough to let a 32-seed SSYNC robustness sweep share one store with
// the FSYNC sweep and skip every schedule's stall tail after the
// first; tier B walks with period > 1 also consult the bare key for
// these universal facts when their phased key misses.
type schedWalk struct {
	st     *memo.Outcomes
	period int
	n      int
	path   []schedState
	idx    map[memo.Key]int
	// pending carries the phased key computed for the post-move state
	// at repeat-detection time to the next loop top's visit.
	pending    memo.Key
	hasPending bool
}

// schedState is one fresh (idle == 0) state of the walk's trajectory,
// with the cumulative budgets consumed reaching it.
type schedState struct {
	key    memo.Key
	cfg    config.Config
	raw    int // loop iterations
	rounds int // counted (moving) rounds
	moves  int // robot steps
}

func newSchedWalk(st *memo.Outcomes, period, n int) *schedWalk {
	return &schedWalk{st: st, period: period, n: n, idx: make(map[memo.Key]int, 32)}
}

// key keys the state entering loop iteration round. Period-1
// schedulers use the bare pattern key (interoperable with the FSYNC
// simulator's store); longer periods shift into phase slots 1..period.
func (w *schedWalk) key(nodes []grid.Coord, round int) memo.Key {
	k := memo.KeyOf(nodes)
	if w.period > 1 {
		return k.WithPhase(round%w.period + 1)
	}
	return k
}

// visit records the fresh state entering iteration round and tries to
// end the run from the store. It returns (result, true) on a splice.
// nodes is the caller's scratch (not retained); cur is the same state
// as a Config.
func (w *schedWalk) visit(nodes []grid.Coord, cur config.Config, round, maxRounds int, res *sim.Result) (sim.Result, bool) {
	key := w.pending
	if !w.hasPending {
		key = w.key(nodes, round)
	}
	w.hasPending = false
	w.path = append(w.path, schedState{key: key, cfg: cur, raw: round, rounds: res.Rounds, moves: res.Moves})
	w.idx[key] = len(w.path) - 1
	if out, ok := w.st.Load(key); ok {
		if r, spliced := w.splice(out, round, maxRounds, cur, res); spliced {
			return r, true
		}
		return sim.Result{}, false
	}
	if w.period > 1 {
		// The phased key missed; a universal no-mover fact at the bare
		// key (published by the simulator or a tier-A run) still ends
		// the run, under the tier-A guard.
		if out, ok := w.st.Load(memo.KeyOf(nodes)); ok && out.Rounds == 0 && out.Raw == 0 {
			if r, spliced := w.spliceStall(out, round, maxRounds, cur, res); spliced {
				return r, true
			}
		}
	}
	return sim.Result{}, false
}

// spliceStall applies a Rounds == 0 gathered/stalled fact: no robot
// ever moves again, so the result is the run so far with the fact's
// status — provided the remaining budget covers the direct loop's own
// stall resolution (at most 4·n idle iterations from a fresh state).
// Nothing is backfilled: the prefix states' exact Raw would need the
// resolution length under *these* dynamics, which the fact (possibly
// published under different dynamics) does not carry.
func (w *schedWalk) spliceStall(out memo.Outcome, round, maxRounds int, cur config.Config, res *sim.Result) (sim.Result, bool) {
	status := sim.Status(out.Status)
	if status != sim.Gathered && status != sim.Stalled {
		return sim.Result{}, false
	}
	if round+4*w.n >= maxRounds {
		return sim.Result{}, false
	}
	r := *res
	r.Status = status
	r.Final = cur
	return r, true
}

// splice tries to end the walk at a memoized outcome for the state
// just recorded (the last path entry, reached at loop iteration
// round). The budget guards mirror the direct loop's detection points,
// in iterations: the terminal statuses are detected inside iteration
// raw-total (raw-total < MaxRounds), livelock and disconnection at the
// end of the last iteration (raw-total ≤ MaxRounds). The on-cycle
// livelock hazard and its fix are exactly internal/sim's (see
// memoized.go there): the earliest own prefix state on the published
// cycle is where the direct run's repeat happens.
func (w *schedWalk) splice(out memo.Outcome, round, maxRounds int, cur config.Config, res *sim.Result) (sim.Result, bool) {
	p := len(w.path) - 1
	status := sim.Status(out.Status)
	switch status {
	case sim.Livelock:
		ci := out.Cycle
		if ci == nil {
			return sim.Result{}, false // defensive: malformed entry, treat as a miss
		}
		if out.Rounds == ci.Len {
			t := 0
			for t < p && !ci.OnCycle(w.path[t].key) {
				t++
			}
			entry := w.path[t]
			if entry.raw+int(ci.RawLen) > maxRounds {
				return sim.Result{}, false
			}
			w.publishCycle(t, ci)
			return sim.Result{
				Status: sim.Livelock, Rounds: entry.rounds + int(ci.Len),
				Moves: entry.moves + int(ci.Moves), Final: entry.cfg,
			}, true
		}
		if round+int(out.Raw) > maxRounds {
			return sim.Result{}, false
		}
		w.backfill(int(out.Rounds), int(out.Raw), int(out.Moves),
			memo.Outcome{Status: out.Status, Final: out.Final, Cycle: ci})
		return sim.Result{
			Status: sim.Livelock, Rounds: res.Rounds + int(out.Rounds),
			Moves: res.Moves + int(out.Moves), Final: out.Final,
		}, true
	case sim.Disconnected:
		if round+int(out.Raw) > maxRounds {
			return sim.Result{}, false
		}
	default: // Gathered, Stalled, Collision
		if out.Rounds == 0 && out.Collision == nil {
			// A stall fact's Raw is not trusted across publishers; use
			// the conservative guard (and skip the backfill).
			return w.spliceStall(out, round, maxRounds, cur, res)
		}
		if round+int(out.Raw) >= maxRounds {
			return sim.Result{}, false
		}
	}
	w.backfill(int(out.Rounds), int(out.Raw), int(out.Moves),
		memo.Outcome{Status: out.Status, Final: out.Final, Collision: out.Collision})
	return sim.Result{
		Status: status, Rounds: res.Rounds + int(out.Rounds),
		Moves: res.Moves + int(out.Moves), Final: out.Final, Collision: out.Collision,
	}, true
}

// backfill publishes an outcome for every recorded state: the last
// path entry's own remaining run is (remRounds, remRaw, remMoves);
// earlier states add the recorded cumulative differences. The shared
// terminal fields (Status, Final, Collision, Cycle) come from out.
func (w *schedWalk) backfill(remRounds, remRaw, remMoves int, out memo.Outcome) {
	last := w.path[len(w.path)-1]
	endRounds := last.rounds + remRounds
	endRaw := last.raw + remRaw
	endMoves := last.moves + remMoves
	for _, ps := range w.path {
		o := out
		o.Rounds = int32(endRounds - ps.rounds)
		o.Raw = int32(endRaw - ps.raw)
		o.Moves = int32(endMoves - ps.moves)
		w.st.Publish(ps.key, o)
	}
}

// terminal publishes a collision or stall decision detected at loop
// iteration round with the configuration unchanged since the last
// recorded state (only idle iterations separate them).
func (w *schedWalk) terminal(status sim.Status, round int, cur config.Config, coll *step.CollisionInfo) {
	last := w.path[len(w.path)-1]
	w.backfill(0, round-last.raw, 0, memo.Outcome{Status: uint8(status), Final: cur, Collision: coll})
}

// disconnected publishes a split detected after the moving round at
// loop iteration round; res already accounts for that round. The
// disconnected state itself gets no outcome (a run starting there
// would step before noticing the split).
func (w *schedWalk) disconnected(round int, res *sim.Result) {
	last := w.path[len(w.path)-1]
	w.backfill(res.Rounds-last.rounds, round+1-last.raw, res.Moves-last.moves,
		memo.Outcome{Status: uint8(sim.Disconnected), Final: res.Final})
}

// closeCycle publishes the livelock closed when the moving round at
// loop iteration round re-entered w.path[t0]; res already accounts for
// that round.
func (w *schedWalk) closeCycle(t0, round int, res *sim.Result) {
	entry := w.path[t0]
	ci := &memo.CycleInfo{
		Len:     int32(res.Rounds - entry.rounds),
		RawLen:  int32(round + 1 - entry.raw),
		Moves:   int32(res.Moves - entry.moves),
		Members: make(map[memo.Key]struct{}, len(w.path)-t0),
	}
	for _, ps := range w.path[t0:] {
		ci.Members[ps.key] = struct{}{}
	}
	w.publishCycle(t0, ci)
}

// publishCycle publishes livelock outcomes for a path entering a cycle
// at index t0: path[t0:] are on the cycle (one lap from themselves —
// the lap's counted rounds, iterations and moves are rotation-
// invariant sums), path[:t0] is the tail down to the entry plus one
// lap. ci is complete before any publication.
func (w *schedWalk) publishCycle(t0 int, ci *memo.CycleInfo) {
	for _, ps := range w.path[t0:] {
		w.st.Publish(ps.key, memo.Outcome{
			Status: uint8(sim.Livelock), Rounds: ci.Len, Raw: ci.RawLen,
			Moves: ci.Moves, Final: ps.cfg, Cycle: ci,
		})
	}
	entry := w.path[t0]
	for _, ps := range w.path[:t0] {
		w.st.Publish(ps.key, memo.Outcome{
			Status: uint8(sim.Livelock),
			Rounds: int32(entry.rounds-ps.rounds) + ci.Len,
			Raw:    int32(entry.raw-ps.raw) + ci.RawLen,
			Moves:  int32(entry.moves-ps.moves) + ci.Moves,
			Final:  entry.cfg, Cycle: ci,
		})
	}
}
