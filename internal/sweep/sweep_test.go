package sweep_test

// The sweep engine's contract: same results as a serial reference loop,
// in-order streaming delivery, constant memory (O(workers) retained
// batches of runs), deterministic aggregation independent of worker
// count — including seeded SSYNC robustness sweeps — and prompt,
// leak-free context cancellation. The root package's equivalence tests
// additionally pin the n = 7 report case for case against the
// test-only reference loop (internal/oracle).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestRunMatchesSerialReference compares the full n = 7 sweep against
// an inline serial loop over the same enumeration — the simplest
// possible implementation of the same semantics.
func TestRunMatchesSerialReference(t *testing.T) {
	rep, err := sweep.Run(context.Background(), sweep.Spec{KeepCases: true})
	if err != nil {
		t.Fatal(err)
	}
	initials := enumerate.Connected(7)
	if rep.Total != len(initials) || len(rep.Cases) != len(initials) {
		t.Fatalf("swept %d runs (%d cases), want %d", rep.Total, len(rep.Cases), len(initials))
	}
	byStatus := map[sim.Status]int{}
	for i, c := range initials {
		res := sim.Run(core.Gatherer{}, c, sim.Options{DetectCycles: true, StopOnDisconnect: true})
		byStatus[res.Status]++
		got := rep.Cases[i]
		if !got.Initial.Equal(c) || got.Status != res.Status || got.Rounds != res.Rounds || got.Moves != res.Moves {
			t.Fatalf("case %d diverges from serial reference: sweep %v/%d/%d serial %v/%d/%d on %s",
				i, got.Status, got.Rounds, got.Moves, res.Status, res.Rounds, res.Moves, c.Key())
		}
	}
	if !reflect.DeepEqual(rep.ByStatus, byStatus) {
		t.Fatalf("status counts diverge: sweep %v serial %v", rep.ByStatus, byStatus)
	}
	if !rep.AllGathered() {
		t.Fatalf("Theorem 2 sweep did not fully gather: %s", rep)
	}
}

// TestStreamConstantMemoryN8 streams the full 16689-pattern n = 8
// sweep with KeepCases off: nothing may be retained, delivery must be
// in index order, and the reorder buffer's high-water mark must be
// bounded by the worker count — O(workers) batches of runs regardless
// of sweep size, the constant-memory claim of the package.
func TestStreamConstantMemoryN8(t *testing.T) {
	if testing.Short() {
		t.Skip("full n=8 sweep in -short mode")
	}
	const workers = 8
	next := 0
	rep, err := sweep.Stream(context.Background(), sweep.Spec{N: 8, Workers: workers},
		func(c sweep.CaseResult) error {
			if c.Index != next {
				return errors.New("out-of-order delivery")
			}
			next++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cases != nil {
		t.Fatalf("KeepCases off but %d cases retained", len(rep.Cases))
	}
	if next != enumerate.KnownCounts[8] || rep.Total != next {
		t.Fatalf("visited %d runs, want %d", next, enumerate.KnownCounts[8])
	}
	// Completion can outrun in-order delivery by at most the dispatch
	// window (4 × workers batches of 16 runs), so the reorder buffer is
	// O(workers) however large the sweep.
	if limit := 4 * workers; rep.PeakPending > limit {
		t.Fatalf("reorder buffer peaked at %d batches, want O(workers) ≤ %d", rep.PeakPending, limit)
	}
}

// TestVisitorErrorCancelsSweep checks that a visitor error aborts the
// sweep and surfaces as the returned error.
func TestVisitorErrorCancelsSweep(t *testing.T) {
	boom := errors.New("boom")
	seen := 0
	_, err := sweep.Stream(context.Background(), sweep.Spec{N: 6}, func(sweep.CaseResult) error {
		seen++
		if seen == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("visitor error not returned: %v", err)
	}
	if seen != 10 {
		t.Fatalf("visitor called %d times after erroring at 10", seen)
	}
}

// TestContextCancellation cancels a sweep mid-flight and requires a
// prompt error return with no goroutines left behind (the race leg
// runs this too).
func TestContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	start := time.Now()
	_, err := sweep.Stream(ctx, sweep.Spec{N: 7}, func(sweep.CaseResult) error {
		delivered++
		if delivered == 50 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("cancelled sweep took %s to return", took)
	}
	// The worker pool drains asynchronously after Stream returns; give
	// it a moment, then require the goroutine count back at baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, now)
	}
	cancel()
}

// TestSSYNCDeterministicAcrossWorkers runs the same seeded SSYNC
// robustness sweep with one worker and with many and requires
// bit-identical reports — cases, aggregates, robustness histogram.
// Each worker's per-seed scheduler replays its seed's schedule in every
// run, and aggregation is in-order, so worker scheduling must not be
// observable.
func TestSSYNCDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *sweep.Report {
		rep, err := sweep.Run(context.Background(), sweep.Spec{
			N:         6,
			Scheduler: sweep.SSYNC,
			Seeds:     sweep.SeedRange(1, 4),
			MaxRounds: 5000,
			Workers:   workers,
			KeepCases: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.PeakPending = 0 // scheduling-dependent diagnostics, not results
		return rep
	}
	one := run(1)
	many := run(7)
	if one.Total != enumerate.KnownCounts[6]*4 {
		t.Fatalf("swept %d runs, want %d", one.Total, enumerate.KnownCounts[6]*4)
	}
	if !reflect.DeepEqual(one, many) {
		t.Fatalf("seeded SSYNC sweep differs across worker counts:\n1 worker:  %s\n7 workers: %s", one, many)
	}
	sum := 0
	for _, c := range one.Robust {
		sum += c
	}
	if sum != one.Patterns {
		t.Fatalf("robustness histogram sums to %d patterns, want %d", sum, one.Patterns)
	}
}

// TestSSYNCReusedSchedulerMatchesFresh: a worker builds one scheduler
// per seed and hands it to every run of that seed. Every case must
// equal a direct sched.Run under a fresh NewRandomSubset(seed), at one
// worker and at several — a reused RandomSubset replays its recorded
// draws, so no run sees another run's rounds.
func TestSSYNCReusedSchedulerMatchesFresh(t *testing.T) {
	seeds := sweep.SeedRange(1, 8)
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true}
	for _, n := range []int{6, 7} {
		pats := enumerate.Connected(n)
		for _, workers := range []int{1, 4} {
			cases := 0
			_, err := sweep.Stream(context.Background(), sweep.Spec{
				N: n, Scheduler: sweep.SSYNC, Seeds: seeds, Workers: workers,
			}, func(cr sweep.CaseResult) error {
				cases++
				res := sched.Run(core.Gatherer{}, pats[cr.Pattern], sched.NewRandomSubset(cr.Seed), opts)
				if cr.Status != res.Status || cr.Rounds != res.Rounds || cr.Moves != res.Moves ||
					cr.Class != sweep.Classify(pats[cr.Pattern], res.Status) {
					return fmt.Errorf("n=%d workers=%d pattern %d seed %d: sweep (%v, %d, %d) != direct (%v, %d, %d)",
						n, workers, cr.Pattern, cr.Seed, cr.Status, cr.Rounds, cr.Moves, res.Status, res.Rounds, res.Moves)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := len(pats) * len(seeds); cases != want {
				t.Fatalf("n=%d workers=%d: %d cases, want %d", n, workers, cases, want)
			}
		}
	}
}

// TestClassify pins the failure-taxonomy encoding.
func TestClassify(t *testing.T) {
	line := config.Line(grid.Origin, grid.E, 5)
	cl := sweep.Classify(line, sim.Livelock)
	if cl.Status != sim.Livelock || cl.Diameter != 4 {
		t.Fatalf("Classify = %+v, want livelock at diameter 4", cl)
	}
	if got := cl.String(); got != "livelock/d4" {
		t.Fatalf("Class.String() = %q", got)
	}
	txt, err := cl.MarshalText()
	if err != nil || string(txt) != "livelock/d4" {
		t.Fatalf("MarshalText = %q, %v", txt, err)
	}
}

// TestSources checks the three Source constructors: counts, labels,
// ordering, and that a list source feeds the sweep as-is.
func TestSources(t *testing.T) {
	conn := sweep.Connected(5)
	if conn.Count() != enumerate.KnownCounts[5] || conn.Label() != "connected(5)" {
		t.Fatalf("Connected(5): count %d label %q", conn.Count(), conn.Label())
	}
	within := sweep.ConnectedWithin(4, 2)
	if got, want := within.Count(), len(enumerate.ConnectedWithin(4, 2)); got != want {
		t.Fatalf("ConnectedWithin(4,2): count %d, want %d", got, want)
	}
	prev := -1
	conn.Each(func(i int, c config.Config) bool {
		if i != prev+1 || c.Len() != 5 {
			t.Fatalf("Each yielded index %d after %d (len %d)", i, prev, c.Len())
		}
		prev = i
		return true
	})

	list := enumerate.Connected(3)[:4]
	rep, err := sweep.Run(context.Background(), sweep.Spec{
		N:      3,
		Alg:    core.ThreeGatherer{},
		Source: sweep.Patterns(list...),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patterns != 4 || rep.Source != "list(4)" || !rep.AllGathered() {
		t.Fatalf("list sweep: %s", rep)
	}

	// The default source refuses a size it cannot enumerate instead of
	// starting to.
	if _, err := sweep.Run(context.Background(), sweep.Spec{N: enumerate.MaxKeyN + 1}); err == nil {
		t.Fatalf("Run accepted n = %d with the default source", enumerate.MaxKeyN+1)
	}
}

// TestAdversaryMode runs the exact-adversary sweep over the full n = 5
// space: every pattern is defeatable (the E13 small-n result), every
// case carries a verified verdict, and the report partition is
// consistent and deterministic across runs.
func TestAdversaryMode(t *testing.T) {
	spec := sweep.Spec{N: 5, Adversary: &adversary.Options{}}
	var verdicts int
	rep, err := sweep.Stream(context.Background(), spec, func(c sweep.CaseResult) error {
		if c.Verdict == nil {
			t.Fatalf("pattern %d: no verdict in adversary mode", c.Pattern)
		}
		if c.Verdict.Kind == adversary.Defeatable {
			if c.Verdict.Witness == nil {
				t.Fatalf("pattern %d: defeatable without witness", c.Pattern)
			}
			if c.Status != c.Verdict.Witness.Status() || c.Status == sim.Gathered {
				t.Fatalf("pattern %d: status %v vs witness kind %v", c.Pattern, c.Status, c.Verdict.Witness.Kind)
			}
		}
		verdicts++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if verdicts != enumerate.KnownCounts[5] {
		t.Fatalf("visited %d verdicts, want %d", verdicts, enumerate.KnownCounts[5])
	}
	if rep.Defeatable != 186 || rep.SafePatterns != 0 || rep.Undecided != 0 {
		t.Fatalf("n=5 partition %d/%d/%d, want 186/0/0", rep.Defeatable, rep.SafePatterns, rep.Undecided)
	}
	if rep.Defeatable+rep.SafePatterns != rep.Patterns || rep.Scheduler != "adversary" {
		t.Fatalf("inconsistent report: %s", rep)
	}
	if rep.AllGathered() {
		t.Fatal("defeats must fail AllGathered (the verify exit-code contract)")
	}
	// Determinism: a second run aggregates to the identical report.
	rep2, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatalf("adversary-mode sweep is not deterministic:\n%v\nvs\n%v", rep, rep2)
	}
}

// TestAdversaryModeSolverOnly: the exact solver decides every n = 7
// pattern (E13: 3228 defeatable / 424 safe), and the serialized report
// is byte-identical whether one worker or two decide — the solver
// memo counts distinct game states, so even solver_states agrees.
func TestAdversaryModeSolverOnly(t *testing.T) {
	var reports [][]byte
	for _, workers := range []int{1, 2} {
		rep, err := sweep.Run(context.Background(), sweep.Spec{
			N: 7, Workers: workers, Adversary: &adversary.Options{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Defeatable != 3228 || rep.SafePatterns != 424 || rep.Undecided != 0 {
			t.Fatalf("workers=%d: partition %d/%d/%d, want 3228/424/0",
				workers, rep.Defeatable, rep.SafePatterns, rep.Undecided)
		}
		if want := map[string]int{"solver": 3652}; !reflect.DeepEqual(rep.ByMethod, want) {
			t.Fatalf("workers=%d: by_method %v, want %v", workers, rep.ByMethod, want)
		}
		if rep.SolverStates != 3652 || rep.MaxWitnessDepth != 16 {
			t.Fatalf("workers=%d: solver_states %d, max_witness_depth %d, want 3652, 16",
				workers, rep.SolverStates, rep.MaxWitnessDepth)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("worker count changed the adversary report:\n%s\nvs\n%s", reports[0], reports[1])
	}
}

// TestAdversaryNoHeuristicsIgnored: the deprecated option changes nothing.
func TestAdversaryNoHeuristicsIgnored(t *testing.T) {
	run := func(opts adversary.Options) *sweep.Report {
		rep, err := sweep.Run(context.Background(), sweep.Spec{N: 6, Adversary: &opts})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(adversary.Options{NoHeuristics: true}), run(adversary.Options{}); !reflect.DeepEqual(a, b) {
		t.Fatalf("NoHeuristics changed the report:\n%v\nvs\n%v", a, b)
	}
}

// TestAdversaryModeWorkerDeterminism runs the exact-adversary sweep
// over the full n = 6 space sequentially and with a worker pool
// sharing the concurrent solver memo (this is also the test that
// hammers the sharded memo under -race in CI): the reports must agree
// on everything except the memo's lookup tallies, which record which
// worker reached a shared game state first.
func TestAdversaryModeWorkerDeterminism(t *testing.T) {
	seq, err := sweep.Run(context.Background(), sweep.Spec{N: 6, Adversary: &adversary.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	par, err := sweep.Stream(context.Background(), sweep.Spec{
		N: 6, Workers: 8, Adversary: &adversary.Options{},
	}, func(c sweep.CaseResult) error {
		// In-order delivery: the visitor sees pattern indices ascending
		// regardless of which worker finished first.
		if c.Pattern != delivered {
			t.Fatalf("out-of-order delivery: pattern %d at position %d", c.Pattern, delivered)
		}
		delivered++
		if c.Verdict == nil {
			t.Fatalf("pattern %d: no verdict", c.Pattern)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != seq.Patterns {
		t.Fatalf("parallel sweep delivered %d verdicts, want %d", delivered, seq.Patterns)
	}
	// Neutralize the scheduling-dependent diagnostics (the memo's hit
	// and miss tallies count racing lookups; its distinct-state count,
	// SolverStates, does not race), then require identical reports.
	seq.Memo.Hits, par.Memo.Hits = 0, 0
	seq.Memo.Misses, par.Memo.Misses = 0, 0
	seq.PeakPending, par.PeakPending = 0, 0
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("worker count changed the adversary report:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.Defeatable != 721 || seq.SafePatterns != 93 {
		t.Fatalf("n=6 partition %d/%d, want 721/93", seq.Defeatable, seq.SafePatterns)
	}
}

// TestAdversaryModeMetrics: an adversary sweep publishes the sweep
// metrics exactly as a scheduler sweep does, whatever its worker count.
func TestAdversaryModeMetrics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := metrics.NewRegistry()
		rep, err := sweep.Run(context.Background(), sweep.Spec{
			N: 6, Workers: workers, Adversary: &adversary.Options{}, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("sweep_runs_total").Value(); got != 814 {
			t.Fatalf("workers=%d: sweep_runs_total = %d, want 814", workers, got)
		}
		if got := reg.Gauge("sweep_pending_high_water").Value(); got < 1 || got != int64(rep.PeakPending) {
			t.Fatalf("workers=%d: sweep_pending_high_water = %d (PeakPending %d), want ≥ 1 and equal",
				workers, got, rep.PeakPending)
		}
	}
}

// TestBatchEdges sweeps sources whose run counts are not a multiple of
// any batch size, at worker counts below, at and above the core count:
// every case arrives exactly once in Index order, progress climbs by
// one to (total, total), the report does not depend on the worker
// count, and a visitor error in the middle of a batch stops delivery
// and aggregation right at the failing case.
func TestBatchEdges(t *testing.T) {
	specs := map[string]sweep.Spec{
		// 37 patterns × 3 seeds = 111 runs.
		"list": {
			N:         7,
			Source:    sweep.Patterns(enumerate.Connected(7)[:37]...),
			Scheduler: sweep.SSYNC,
			Seeds:     sweep.SeedRange(1, 3),
			MaxRounds: 5000,
		},
		"within": {N: 5, Source: sweep.ConnectedWithin(5, 2)},
	}
	for name, spec := range specs {
		var reports [][]byte
		for _, workers := range []int{1, 2, 8} {
			spec := spec
			spec.Workers = workers
			next, progressed := 0, 0
			spec.Progress = func(done, total int) {
				if done != progressed+1 {
					t.Fatalf("%s/%d: progress %d after %d", name, workers, done, progressed)
				}
				progressed = done
				if total != spec.Source.Count()*max(1, len(spec.Seeds)) {
					t.Fatalf("%s/%d: progress total %d", name, workers, total)
				}
			}
			rep, err := sweep.Stream(context.Background(), spec, func(c sweep.CaseResult) error {
				if c.Index != next {
					t.Fatalf("%s/%d: case %d delivered at position %d", name, workers, c.Index, next)
				}
				next++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != rep.Total || progressed != rep.Total {
				t.Fatalf("%s/%d: delivered %d, progress %d, want %d", name, workers, next, progressed, rep.Total)
			}
			if rep.Total%16 == 0 {
				t.Fatalf("%s: %d runs fill whole batches; the tail batch goes untested", name, rep.Total)
			}
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, data)

			// Fail at k, the eighth case of the third batch.
			const k = 39
			boom := errors.New("boom")
			reg := metrics.NewRegistry()
			spec.Metrics = reg
			spec.Progress = nil
			seen := 0
			_, err = sweep.Stream(context.Background(), spec, func(c sweep.CaseResult) error {
				if c.Index != seen {
					t.Fatalf("%s/%d: case %d delivered at position %d", name, workers, c.Index, seen)
				}
				seen++
				if c.Index == k {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("%s/%d: visitor error not returned: %v", name, workers, err)
			}
			if seen != k+1 {
				t.Fatalf("%s/%d: %d cases delivered, want %d", name, workers, seen, k+1)
			}
			if got := reg.Counter("sweep_runs_total").Value(); got != k+1 {
				t.Fatalf("%s/%d: %d cases absorbed, want %d", name, workers, got, k+1)
			}
		}
		for i := 1; i < len(reports); i++ {
			if !bytes.Equal(reports[0], reports[i]) {
				t.Fatalf("%s: worker count changed the report:\n%s\nvs\n%s", name, reports[0], reports[i])
			}
		}
	}
}

// TestAdversaryFirstErrorOrder: a pattern the solver refuses ends the
// sweep with that pattern's error, after exactly the patterns before it
// were delivered, however many workers decide.
func TestAdversaryFirstErrorOrder(t *testing.T) {
	const k = 21 // the sixth pattern of the second batch
	list := append([]config.Config(nil), enumerate.Connected(6)[:40]...)
	gap := config.New(append(config.Line(grid.Origin, grid.E, 5).Nodes(), grid.Coord{Q: 9, R: 9})...)
	list[k] = gap
	for _, workers := range []int{1, 4} {
		seen := 0
		_, err := sweep.Stream(context.Background(), sweep.Spec{
			N: 6, Workers: workers, Source: sweep.Patterns(list...), Adversary: &adversary.Options{},
		}, func(c sweep.CaseResult) error {
			if c.Pattern != seen {
				t.Fatalf("workers=%d: pattern %d delivered at position %d", workers, c.Pattern, seen)
			}
			seen++
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: a disconnected pattern decided without error", workers)
		}
		if want := fmt.Sprintf("pattern %d (%s): ", k, gap.Key()); !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("workers=%d: error %q, want prefix %q", workers, err, want)
		}
		if seen != k {
			t.Fatalf("workers=%d: visitor saw %d patterns, want %d", workers, seen, k)
		}
	}
}
