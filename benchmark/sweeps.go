package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// sweeper is a sweep-shaped workload after set-up: one rep is one full
// sweep of a fixed space, and every rep must produce the same Report.
type sweeper interface {
	// runs is the number of case results one rep produces.
	runs() int64
	// warmup makes the untimed first rep and checks it against the
	// references set-up computed.
	warmup(ctx context.Context) (*sweep.Report, error)
	// rep makes one timed rep.
	rep(ctx context.Context) (*sweep.Report, error)
	// traced makes one rep recomposed from the layers' public calls,
	// with a span around each call on tr; a nil tr records nothing.
	traced(ctx context.Context, tr *tracer) (*sweep.Report, error)
	// check compares a Report with the pinned results.
	check(r *sweep.Report) error
	// layers adds the per-layer counters of the last traced rep.
	layers(out map[string]float64)
	close()
}

// sampleSize is how many seeded (pattern, schedule) runs set-up
// recomputes through a direct, unmemoized run as a reference for the
// first rep's results.
const sampleSize = 256

// runSweep is the run of every sweep-shaped workload: set up (several
// times when untraced, reporting the median), one untimed warm-up rep,
// then either timed reps for the window or, traced, the three reps
// described below.
func runSweep(setup func(e *env, l *lane) (sweeper, error)) func(e *env) (*outcome, error) {
	return func(e *env) (*outcome, error) {
		var tr *tracer
		if e.trace {
			tr = newTracer()
		}
		s, setups, err := setUp(e, tr.lane(false), setup, sweeper.close)
		if err != nil {
			return nil, err
		}
		defer s.close()

		first, err := s.warmup(e.ctx)
		if err != nil {
			return nil, fmt.Errorf("warm-up rep: %w", err)
		}
		if err := s.check(first); err != nil {
			return nil, err
		}
		want, err := json.Marshal(first)
		if err != nil {
			return nil, err
		}
		same := func(r *sweep.Report, what string) error {
			got, err := json.Marshal(r)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s report differs from the first rep's:\n got %s\nwant %s", what, got, want)
			}
			return nil
		}

		o := &outcome{metrics: map[string]float64{}}
		if !e.trace {
			var walls []float64
			start := time.Now()
			for len(walls) < e.size.minReps || time.Since(start) < e.window {
				// Collect the previous rep's garbage outside the timing,
				// so that every rep starts from the same heap.
				runtime.GC()
				t := time.Now()
				r, err := s.rep(e.ctx)
				if err != nil {
					return nil, err
				}
				walls = append(walls, time.Since(t).Seconds())
				if err := same(r, "timed"); err != nil {
					return nil, err
				}
			}
			o.attempted = s.runs() * int64(len(walls))
			o.metrics["setup_s"] = median(setups)
			o.metrics["wall_s"] = median(walls)
			o.metrics["max_rss_mb"] = maxRSSMB()
			o.note("setup_s over %d set-ups: median %.4f, spread %.3f", len(setups), median(setups), spread(setups))
			o.note("wall_s over %d reps: %.4f (spread %.3f)", len(walls), walls, spread(walls))
			return o, nil
		}

		// Three reps: the workload's own, measured for the runtime and
		// process metrics; its recomposition from public calls without
		// spans; and the recomposition with spans. The first two differ
		// by what the recomposition replaced (sweep.dispatch_ms), the
		// last two by the cost of tracing (trace.overhead_ratio).
		runtime.GC()
		m := startMeter()
		r, err := s.rep(e.ctx)
		if err != nil {
			return nil, err
		}
		wall := m.finish(o.metrics)
		if err := same(r, "untraced"); err != nil {
			return nil, err
		}
		var walls [2]time.Duration
		for i, t := range []*tracer{nil, tr} {
			runtime.GC()
			start := time.Now()
			if r, err = s.traced(e.ctx, t); err != nil {
				return nil, err
			}
			walls[i] = time.Since(start)
			if err := same(r, "recomposed"); err != nil {
				return nil, err
			}
		}
		o.attempted = 3 * s.runs()
		spans := tr.spans()
		ls := summarise(spans)
		o.metrics["sweep.dispatch_ms"] = float64(wall-walls[0]) / 1e6
		o.metrics["trace.overhead_ratio"] = ratio(walls[1].Seconds(), walls[0].Seconds())
		o.metrics["trace.unattributed_ratio"] = tr.unattributed()
		o.metrics["enumerate.busy_ms"] = ls.busyMS(spanConnectedStats) + ls.busyMS(spanBuildIndex)
		for layer, name := range map[string]spanName{"sim": spanSimRun, "sched": spanSchedRun} {
			o.metrics[layer+".calls"] = ls.calls(name)
			o.metrics[layer+".busy_ms"] = ls.busyMS(name)
			o.metrics[layer+".run_p50_us"] = ls.pct(name, 0.5, time.Microsecond)
			o.metrics[layer+".run_p99_us"] = ls.pct(name, 0.99, time.Microsecond)
		}
		o.metrics["sweep.absorb_calls"] = ls.calls(spanAbsorb)
		o.metrics["sweep.absorb_busy_ms"] = ls.busyMS(spanAbsorb)
		o.metrics["adversary.decide_calls"] = ls.calls(spanDecide)
		o.metrics["adversary.decide_p50_us"] = ls.pct(spanDecide, 0.5, time.Microsecond)
		o.metrics["adversary.decide_p99_us"] = ls.pct(spanDecide, 0.99, time.Microsecond)
		o.metrics["dist.run_shard_ms"] = ls.busyMS(spanRunShard)
		o.metrics["dist.read_shard_ms"] = ls.busyMS(spanReadShard)
		o.metrics["dist.shard_p50_ms"] = ls.pct(spanShard, 0.5, time.Millisecond)
		o.metrics["dist.shard_max_ms"] = ls.max(spanShard, time.Millisecond)
		s.layers(o.metrics)
		o.note("rep %.4fs, recomposed %.4fs, traced %.4fs, %d spans", wall.Seconds(), walls[0].Seconds(), walls[1].Seconds(), len(spans))
		if e.spans != "" {
			if err := tr.write(e.spans); err != nil {
				return nil, err
			}
		}
		return o, nil
	}
}

// pipeline describes one sweep for recompose.
type pipeline struct {
	n     int
	seeds []int64
	alg   core.Algorithm
	// scheduler builds a run's scheduler from its seed; nil is FSYNC
	// through sim.Run.
	scheduler func(seed int64) sched.Scheduler
	store     *memo.Outcomes
}

// recompose is sweep.Stream rebuilt from public calls, with a span
// around each: enumerate.ConnectedStats, then one sim.Run or sched.Run
// per (pattern, seed) on `workers` goroutines with the sim.Options
// Stream builds, sweep.Classify, and Aggregator.Absorb on the calling
// goroutine. It absorbs whole patterns in completion order rather than
// source order; the Aggregator's contract makes the Report the same.
func recompose(ctx context.Context, tr *tracer, p pipeline) (*sweep.Report, enumerate.Stats, error) {
	main := tr.lane(false)
	root := main.begin()
	sp := main.begin()
	list, est := enumerate.ConnectedStats(p.n, 0)
	main.end(sp, spanConnectedStats, root.id, 0)

	seeds := p.seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	schedName, runName := "fsync", spanSimRun
	if p.scheduler != nil {
		schedName, runName = p.scheduler(seeds[0]).Name(), spanSchedRun
	}
	agg := sweep.NewAggregator(sweep.Meta{
		Algorithm: p.alg.Name(),
		Scheduler: schedName,
		Robots:    p.n,
		Source:    sweep.Connected(p.n).Label(),
		Patterns:  len(list),
		Schedules: len(seeds),
	}, false)

	var next atomic.Int64
	groups := make(chan []sweep.CaseResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := tr.lane(true)
			defer l.done()
			var cycles config.PatternSet
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) || ctx.Err() != nil {
					return
				}
				c := list[i]
				group := make([]sweep.CaseResult, len(seeds))
				for si, seed := range seeds {
					opts := sim.Options{DetectCycles: true, StopOnDisconnect: true, CycleSet: &cycles, Outcomes: p.store}
					index := i*len(seeds) + si
					sp := l.begin()
					var res sim.Result
					if p.scheduler == nil {
						res = sim.Run(p.alg, c, opts)
					} else {
						res = sched.Run(p.alg, c, p.scheduler(seed), opts)
					}
					l.end(sp, runName, root.id, uint64(index)+1)
					sp = l.begin()
					class := sweep.Classify(c, res.Status)
					l.end(sp, spanClassify, root.id, uint64(index)+1)
					group[si] = sweep.CaseResult{
						Index: index, Pattern: i, Initial: c, Seed: seed,
						Status: res.Status, Rounds: res.Rounds, Moves: res.Moves, Class: class,
					}
				}
				sp := l.begin()
				groups <- group
				l.end(sp, spanDeliver, root.id, uint64(i*len(seeds))+1)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(groups)
	}()
	for g := range groups {
		for _, cr := range g {
			sp := main.begin()
			agg.Absorb(cr)
			main.end(sp, spanAbsorb, root.id, uint64(cr.Index)+1)
		}
	}
	main.end(root, spanRep, 0, 0)
	if err := ctx.Err(); err != nil {
		return nil, est, err
	}
	return agg.Finish(), est, nil
}

// enumLayers reports an enumeration's own statistics.
func enumLayers(out map[string]float64, est enumerate.Stats) {
	out["enumerate.patterns"] = float64(est.Patterns)
	out["enumerate.candidates"] = float64(est.Candidates)
	out["enumerate.dedup_hit_ratio"] = est.DedupHitRate()
}

// memoLayers reports an outcome store's traffic over one rep.
func memoLayers(out map[string]float64, delta memo.Stats, states int64) {
	out["memo.hits"] = float64(delta.Hits)
	out["memo.misses"] = float64(delta.Misses)
	out["memo.states"] = float64(states)
	out["memo.hit_ratio"] = ratio(float64(delta.Hits), float64(delta.Lookups()))
}

// sameResult reports how a run's outcome differs from its reference.
func sameResult(got sweep.CaseResult, want sim.Result) error {
	if got.Status != want.Status || got.Rounds != want.Rounds || got.Moves != want.Moves {
		return fmt.Errorf("pattern %d seed %d (%s): %v/%d rounds/%d moves, a direct run gives %v/%d/%d",
			got.Pattern, got.Seed, got.Initial.Key(), got.Status, got.Rounds, got.Moves, want.Status, want.Rounds, want.Moves)
	}
	return nil
}

// directOptions are the options of a reference run: the sweep's
// termination rules, no shared stores.
var directOptions = sim.Options{DetectCycles: true, StopOnDisconnect: true}

// fsyncPin is a pinned FSYNC map of the full connected space.
type fsyncPin struct {
	byStatus  [sim.RoundLimit + 1]int
	maxRounds int
}

// fsyncPins: n = 7 is the paper's Theorem 2, n = 8 E11, n = 9 E15 and
// n = 10 E20 (EXPERIMENTS.md).
var fsyncPins = map[int]fsyncPin{
	7:  {[...]int{3652, 0, 0, 0, 0, 0}, 15},
	8:  {[...]int{15364, 145, 671, 440, 69, 0}, 17},
	9:  {[...]int{44122, 23199, 5149, 4361, 528, 0}, 21},
	10: {[...]int{94158, 213492, 42434, 8810, 3777, 0}, 26},
}

func checkFSYNC(n int, r *sweep.Report) error {
	pin, ok := fsyncPins[n]
	if !ok {
		return fmt.Errorf("no pinned FSYNC map for n = %d", n)
	}
	if r.Total != enumerate.KnownCounts[n] {
		return fmt.Errorf("swept %d patterns, want %d", r.Total, enumerate.KnownCounts[n])
	}
	for s, want := range pin.byStatus {
		if got := r.ByStatus[sim.Status(s)]; got != want {
			return fmt.Errorf("n = %d: %d patterns %v, pinned %d", n, got, sim.Status(s), want)
		}
	}
	if r.MaxRounds != pin.maxRounds {
		return fmt.Errorf("n = %d: max rounds %d, pinned %d", n, r.MaxRounds, pin.maxRounds)
	}
	return nil
}

// fsyncSweep is fsync-n10-cold (every rep starts from a fresh outcome
// store) and fsync-n10-warm (every rep reads a store set-up filled).
type fsyncSweep struct {
	n      int
	warm   *memo.Outcomes
	sample map[int]sim.Result
	// Layer counters of the last traced rep.
	est    enumerate.Stats
	delta  memo.Stats
	states int64
	views  int
}

func setupFSYNC(warm bool) func(e *env, l *lane) (sweeper, error) {
	return func(e *env, l *lane) (sweeper, error) {
		s := &fsyncSweep{n: e.size.fsyncN, sample: map[int]sim.Result{}}
		list, _ := enumerate.ConnectedStats(s.n, workers)
		rng := rand.New(rand.NewSource(e.seed))
		for _, i := range rng.Perm(len(list))[:min(sampleSize, len(list))] {
			s.sample[i] = sim.Run(core.Gatherer{}, list[i], directOptions)
		}
		if warm {
			s.warm = memo.NewOutcomes()
			if _, err := sweep.Run(e.ctx, s.spec(s.warm)); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
}

func (s *fsyncSweep) spec(store *memo.Outcomes) sweep.Spec {
	return sweep.Spec{N: s.n, OutcomeMemo: store, Cache: core.NewMemo(), Workers: workers}
}

func (s *fsyncSweep) store() *memo.Outcomes {
	if s.warm != nil {
		return s.warm
	}
	return memo.NewOutcomes()
}

func (s *fsyncSweep) runs() int64 { return int64(enumerate.KnownCounts[s.n]) }

func (s *fsyncSweep) warmup(ctx context.Context) (*sweep.Report, error) {
	return sweep.Stream(ctx, s.spec(s.store()), func(cr sweep.CaseResult) error {
		if want, ok := s.sample[cr.Pattern]; ok {
			return sameResult(cr, want)
		}
		return nil
	})
}

func (s *fsyncSweep) rep(ctx context.Context) (*sweep.Report, error) {
	return sweep.Run(ctx, s.spec(s.store()))
}

func (s *fsyncSweep) traced(ctx context.Context, tr *tracer) (*sweep.Report, error) {
	store, cache := s.store(), core.NewMemo()
	before := store.Stats()
	r, est, err := recompose(ctx, tr, pipeline{n: s.n, alg: core.Memoize(core.Gatherer{}, cache), store: store})
	s.est, s.delta, s.states, s.views = est, store.Stats().Sub(before), store.Created(), cache.Len()
	return r, err
}

func (s *fsyncSweep) check(r *sweep.Report) error { return checkFSYNC(s.n, r) }

func (s *fsyncSweep) layers(out map[string]float64) {
	enumLayers(out, s.est)
	memoLayers(out, s.delta, s.states)
	out["core.views"] = float64(s.views)
}

func (s *fsyncSweep) close() {}

// schedules is the SSYNC robustness axis of ssync-n7-seeds: the
// verdict table's eight seeds, starting at the run's seed.
const schedules = 8

// e12Seeds is the seed range E12 pins: every n = 7 pattern gathers
// under each of SSYNC seeds 1..32.
const e12Seeds = 32

// ssyncSweep is ssync-n7-seeds: every pattern under eight seeded SSYNC
// schedules, with a fresh view→move cache per rep.
type ssyncSweep struct {
	n      int
	seeds  []int64
	sample map[[2]int64]sim.Result // (pattern, seed) → direct run
	est    enumerate.Stats
	views  int
}

func setupSSYNC(e *env, l *lane) (sweeper, error) {
	s := &ssyncSweep{n: e.size.ssyncN, seeds: sweep.SeedRange(e.seed, schedules), sample: map[[2]int64]sim.Result{}}
	list, _ := enumerate.ConnectedStats(s.n, workers)
	rng := rand.New(rand.NewSource(e.seed))
	for len(s.sample) < sampleSize {
		i, seed := rng.Intn(len(list)), s.seeds[rng.Intn(len(s.seeds))]
		s.sample[[2]int64{int64(i), seed}] = sched.Run(core.Gatherer{}, list[i], sweep.SSYNC(seed), directOptions)
	}
	return s, nil
}

func (s *ssyncSweep) spec() sweep.Spec {
	return sweep.Spec{N: s.n, Scheduler: sweep.SSYNC, Seeds: s.seeds, Cache: core.NewMemo(), Workers: workers}
}

func (s *ssyncSweep) runs() int64 { return int64(enumerate.KnownCounts[s.n] * schedules) }

func (s *ssyncSweep) warmup(ctx context.Context) (*sweep.Report, error) {
	return sweep.Stream(ctx, s.spec(), func(cr sweep.CaseResult) error {
		if want, ok := s.sample[[2]int64{int64(cr.Pattern), cr.Seed}]; ok {
			return sameResult(cr, want)
		}
		return nil
	})
}

func (s *ssyncSweep) rep(ctx context.Context) (*sweep.Report, error) {
	return sweep.Run(ctx, s.spec())
}

func (s *ssyncSweep) traced(ctx context.Context, tr *tracer) (*sweep.Report, error) {
	cache := core.NewMemo()
	r, est, err := recompose(ctx, tr, pipeline{n: s.n, seeds: s.seeds, alg: core.Memoize(core.Gatherer{}, cache), scheduler: sweep.SSYNC})
	s.est, s.views = est, cache.Len()
	return r, err
}

func (s *ssyncSweep) check(r *sweep.Report) error {
	if want := s.runs(); int64(r.Total) != want {
		return fmt.Errorf("made %d runs, want %d", r.Total, want)
	}
	if s.n == 7 && s.seeds[0] >= 1 && s.seeds[len(s.seeds)-1] <= e12Seeds && !r.AllGathered() {
		return fmt.Errorf("E12: every n = 7 run gathers under seeds 1..%d, but %d of %d did", e12Seeds, r.Gathered(), r.Total)
	}
	return nil
}

func (s *ssyncSweep) layers(out map[string]float64) {
	enumLayers(out, s.est)
	out["core.views"] = float64(s.views)
}

func (s *ssyncSweep) close() {}

// adversaryPins are E13's exact defeasibility partitions (defeatable,
// safe) of the connected n-robot spaces.
var adversaryPins = map[int][2]int{5: {186, 0}, 6: {721, 93}, 7: {3228, 424}}

// adversarySweep is adversary-n7: exact defeasibility of every pattern
// with the default pipeline (heuristics, then the solver) on a fresh
// Adversary per rep.
type adversarySweep struct {
	n int
	// solverOnly holds each pattern's verdict from a solver-only run,
	// the reference the heuristic pipeline's verdicts must match.
	solverOnly []adversary.VerdictKind
	// Layer counters of the last traced rep.
	est             enumerate.Stats
	methodNS        [2]int64 // heuristic, solver
	decided         [2]int
	states          int
	memoHit, memoAt int64
}

func setupAdversary(e *env, l *lane) (sweeper, error) {
	s := &adversarySweep{n: e.size.advN}
	ref, err := sweep.Run(e.ctx, sweep.Spec{N: s.n, Adversary: &adversary.Options{NoHeuristics: true}, Workers: workers, KeepCases: true})
	if err != nil {
		return nil, err
	}
	s.solverOnly = make([]adversary.VerdictKind, len(ref.Cases))
	for _, cr := range ref.Cases {
		s.solverOnly[cr.Pattern] = cr.Verdict.Kind
	}
	return s, nil
}

func (s *adversarySweep) spec() sweep.Spec {
	return sweep.Spec{N: s.n, Adversary: &adversary.Options{}, Workers: workers}
}

func (s *adversarySweep) runs() int64 { return int64(enumerate.KnownCounts[s.n]) }

func (s *adversarySweep) warmup(ctx context.Context) (*sweep.Report, error) {
	return sweep.Stream(ctx, s.spec(), func(cr sweep.CaseResult) error {
		if got, want := cr.Verdict.Kind, s.solverOnly[cr.Pattern]; got != want {
			return fmt.Errorf("pattern %d (%s): pipeline says %v (%s), the solver alone %v",
				cr.Pattern, cr.Initial.Key(), got, cr.Verdict.Method, want)
		}
		return nil
	})
}

func (s *adversarySweep) rep(ctx context.Context) (*sweep.Report, error) {
	return sweep.Run(ctx, s.spec())
}

func (s *adversarySweep) check(r *sweep.Report) error {
	pin, ok := adversaryPins[s.n]
	if !ok {
		return fmt.Errorf("no pinned defeasibility map for n = %d", s.n)
	}
	if r.Defeatable != pin[0] || r.SafePatterns != pin[1] || r.Undecided != 0 {
		return fmt.Errorf("n = %d: %d defeatable / %d safe / %d undecided, pinned %d / %d / 0",
			s.n, r.Defeatable, r.SafePatterns, r.Undecided, pin[0], pin[1])
	}
	return nil
}

// decided is one adversary decision on its way to the aggregator.
type decided struct {
	i   int
	c   config.Config
	v   adversary.Verdict
	ns  int64
	err error
}

// traced recomposes the adversary sweep's parallel executor: each
// worker decides patterns on its own Fork of one Adversary, and the
// calling goroutine aggregates the verdicts as the sweep package does.
func (s *adversarySweep) traced(ctx context.Context, tr *tracer) (*sweep.Report, error) {
	main := tr.lane(false)
	root := main.begin()
	sp := main.begin()
	list, est := enumerate.ConnectedStats(s.n, 0)
	main.end(sp, spanConnectedStats, root.id, 0)
	s.est = est

	alg := core.Gatherer{}
	adv := adversary.New(adversary.Options{Alg: alg})
	var next atomic.Int64
	out := make(chan decided, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := tr.lane(true)
			defer l.done()
			fork := adv.Fork()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) || ctx.Err() != nil {
					return
				}
				sp := l.begin()
				v, err := fork.Decide(list[i])
				l.end(sp, spanDecide, root.id, uint64(i)+1)
				d := decided{i: i, c: list[i], v: v, ns: l.since(sp), err: err}
				sp = l.begin()
				out <- d
				l.end(sp, spanDeliver, root.id, uint64(i)+1)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	va := newVerdictAgg(alg.Name(), s.n, len(list))
	s.methodNS, s.decided = [2]int64{}, [2]int{}
	var firstErr error
	for d := range out {
		if d.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("pattern %d (%s): %w", d.i, d.c.Key(), d.err)
			}
			continue
		}
		k := 1
		if d.v.Method != "solver" {
			k = 0
		}
		s.methodNS[k] += d.ns
		s.decided[k]++
		sp := main.begin()
		va.absorb(d.c, d.v)
		main.end(sp, spanAbsorb, root.id, uint64(d.i)+1)
	}
	main.end(root, spanRep, 0, 0)
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ms := adv.MemoStats()
	s.states, s.memoHit, s.memoAt = adv.StatesExplored(), ms.Hits, ms.Lookups()
	r := va.finish()
	r.SolverStates = s.states
	r.Memo = ms
	return r, nil
}

func (s *adversarySweep) layers(out map[string]float64) {
	enumLayers(out, s.est)
	out["adversary.decide_ms.heuristic"] = float64(s.methodNS[0]) / 1e6
	out["adversary.decide_ms.solver"] = float64(s.methodNS[1]) / 1e6
	out["adversary.decided.heuristic"] = float64(s.decided[0])
	out["adversary.decided.solver"] = float64(s.decided[1])
	out["adversary.solver_states"] = float64(s.states)
	out["adversary.memo_hit_ratio"] = ratio(float64(s.memoHit), float64(s.memoAt))
}

func (s *adversarySweep) close() {}

// verdictAgg folds adversary verdicts into a Report with the sweep
// package's adversary-mode arithmetic (which it keeps unexported): a
// verdict's case status is its witness's status when defeatable,
// gathered when safe, and round-limit when undecided; the rounds and
// moves aggregates describe the witness replays of the defeats. Every
// aggregate commutes, so completion order does not matter.
type verdictAgg struct {
	r                            *sweep.Report
	defeats, sumRounds, sumMoves int
}

func newVerdictAgg(alg string, n, patterns int) *verdictAgg {
	return &verdictAgg{r: &sweep.Report{
		Algorithm: alg,
		Scheduler: "adversary",
		Robots:    n,
		Source:    sweep.Connected(n).Label(),
		Patterns:  patterns,
		Schedules: 1,
		Total:     patterns,
		ByStatus:  map[sim.Status]int{},
		ByClass:   map[sweep.Class]int{},
		ByMethod:  map[string]int{},
		Robust:    make([]int, 2),
	}}
}

func (a *verdictAgg) absorb(c config.Config, v adversary.Verdict) {
	r := a.r
	status := sim.Gathered
	switch v.Kind {
	case adversary.Safe:
		r.SafePatterns++
	case adversary.Undecided:
		r.Undecided++
		status = sim.RoundLimit
	case adversary.Defeatable:
		r.Defeatable++
		r.MaxWitnessDepth = max(r.MaxWitnessDepth, v.Depth)
		status = v.Witness.Status()
		a.defeats++
		a.sumRounds += v.ReplayRounds
		a.sumMoves += v.ReplayMoves
		r.MaxRounds = max(r.MaxRounds, v.ReplayRounds)
		r.MaxMoves = max(r.MaxMoves, v.ReplayMoves)
	}
	r.ByMethod[v.Method]++
	r.ByStatus[status]++
	if status == sim.Gathered {
		r.Robust[1]++
	} else {
		r.Robust[0]++
		r.ByClass[sweep.Classify(c, status)]++
	}
}

func (a *verdictAgg) finish() *sweep.Report {
	if a.defeats > 0 {
		a.r.MeanRounds = float64(a.sumRounds) / float64(a.defeats)
		a.r.MeanMoves = float64(a.sumMoves) / float64(a.defeats)
	}
	return a.r
}
