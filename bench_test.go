// Package repro's root benchmark harness regenerates every evaluation
// artifact of the paper (see EXPERIMENTS.md for the experiment index):
//
//	E1 BenchmarkE1_Theorem1Impossibility — the mechanized Theorem 1
//	E2 BenchmarkE2_Theorem2Exhaustive    — gathering from all 3652 patterns
//	E2 BenchmarkE2_Ablation*             — what each reconstruction layer buys
//	E3 BenchmarkE3_Enumerate             — the configuration-space table
//	E4 BenchmarkE4_Fig54Walkthrough      — the execution example
//	E5 BenchmarkE5_TranslationLivelock   — the Figs. 12/13 livelock witness
//	E6 BenchmarkE6_BaseNodeScenarios     — the Fig. 49 base-node examples
//	E7 BenchmarkE7_RoundsByDiameter      — rounds vs initial diameter
//	E8 BenchmarkE8_Schedulers            — the non-FSYNC extension
//	E9 BenchmarkE9_RelaxedConnectivity   — relaxed initial connectivity
//	E11 BenchmarkE11_N8Sweep             — the n = 8 open-problem map
//	E12 BenchmarkE8_SSYNCSweep           — SSYNC robustness, all patterns
//	E13 BenchmarkE13_AdversarySearch     — adversarial-schedule search
//	E14 BenchmarkE14_N8Adversary         — the n = 8 defeasibility map
//	E15 BenchmarkE15_N9Sweep             — the exact n = 9 FSYNC map
//	E17 BenchmarkE17_DistOverhead        — distributed-sweep coordination cost
//	E18 BenchmarkE18_VerdictService      — verdict-service hit path (O(1), 0 allocs)
//	E20 BenchmarkE20_N10Sweep            — the full n = 10 FSYNC map
//	E20 BenchmarkE20_EnumerateN10Key     — key-native n = 10 enumeration
//
// Run all of them with: go test -bench=. -benchmem .
package repro

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/impossibility"
	"repro/internal/memo"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/vision"
)

// BenchmarkE1_Theorem1Impossibility regenerates Theorem 1: the refutation
// search over all visibility-1 rule tables.
func BenchmarkE1_Theorem1Impossibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := impossibility.NewProver()
		p.SetBudget(2_000_000)
		v := p.Prove()
		if !v.Impossible {
			b.Fatal("Theorem 1 not established")
		}
		b.ReportMetric(float64(v.Nodes), "search-nodes")
		b.ReportMetric(float64(v.Eliminations), "eliminations")
	}
}

// BenchmarkE2_Theorem2Exhaustive regenerates the paper's headline claim:
// gathering from all 3652 connected initial configurations. The sweep
// shares one packed-view cache across iterations (sweep.Spec.Cache), so
// after the first sweep every Look-Compute decision is a table hit —
// the number the packed engine is judged by.
func BenchmarkE2_Theorem2Exhaustive(b *testing.B) {
	cache := core.NewMemo()
	for i := 0; i < b.N; i++ {
		rep := theorem2Sweep(b, sweep.Spec{Cache: cache})
		if !rep.AllGathered() {
			b.Fatalf("verification failed: %s", rep)
		}
		b.ReportMetric(float64(rep.Gathered()), "gathered")
		b.ReportMetric(float64(rep.MaxRounds), "max-rounds")
	}
}

// theorem2Sweep runs the FSYNC sweep of the spec's space (default: all
// 3652 seven-robot patterns) with cases retained.
func theorem2Sweep(b *testing.B, spec sweep.Spec) *sweep.Report {
	spec.KeepCases = true
	rep, err := sweep.Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// The E2 ablation benches measure how far each reconstruction layer gets;
// the reported "gathered" metric is the comparison the DESIGN.md
// reconstruction decisions are judged by.
func benchVariant(b *testing.B, v core.Variant) {
	for i := 0; i < b.N; i++ {
		rep := theorem2Sweep(b, sweep.Spec{Alg: core.Gatherer{Variant: v}})
		b.ReportMetric(float64(rep.Gathered()), "gathered")
	}
}

// BenchmarkE2_AblationPaper is the bare Algorithm 1 transcription.
func BenchmarkE2_AblationPaper(b *testing.B) { benchVariant(b, core.VariantPaper) }

// BenchmarkE2_AblationNoReconstruction adds only the connectivity guard.
func BenchmarkE2_AblationNoReconstruction(b *testing.B) {
	benchVariant(b, core.VariantNoReconstruction)
}

// BenchmarkE2_AblationNoTable adds hole-filling but not the synthesized
// view table.
func BenchmarkE2_AblationNoTable(b *testing.B) { benchVariant(b, core.VariantNoTable) }

// BenchmarkE2_BaselineGreedy shows the unguarded eastward baseline
// colliding and disconnecting (gathered ≈ 0).
func BenchmarkE2_BaselineGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := theorem2Sweep(b, sweep.Spec{Alg: core.GreedyEast{}})
		b.ReportMetric(float64(rep.Gathered()), "gathered")
		b.ReportMetric(float64(rep.ByStatus[sim.Collision]), "collisions")
	}
}

// BenchmarkE3_Enumerate regenerates the configuration-space table
// (1, 3, 11, 44, 186, 814, 3652).
func BenchmarkE3_Enumerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 7; n++ {
			if got := enumerate.Count(n); got != enumerate.KnownCounts[n] {
				b.Fatalf("size %d: %d patterns, want %d", n, got, enumerate.KnownCounts[n])
			}
		}
	}
}

// BenchmarkE4_Fig54Walkthrough regenerates the execution-example shape of
// Fig. 54: a staircase gathering in a handful of rounds.
func BenchmarkE4_Fig54Walkthrough(b *testing.B) {
	initial := config.MustFromASCII("o o\n o o\n  o o\n   o")
	for i := 0; i < b.N; i++ {
		res := sim.Run(core.Gatherer{}, initial, sim.Options{DetectCycles: true})
		if res.Status != sim.Gathered {
			b.Fatalf("walkthrough failed: %v", res.Status)
		}
		b.ReportMetric(float64(res.Rounds), "rounds")
	}
}

// BenchmarkE5_TranslationLivelock regenerates the Figs. 12/13 livelock
// phenomenon: legal moves forever without gathering.
func BenchmarkE5_TranslationLivelock(b *testing.B) {
	alg := impossibility.TableAlgorithm{
		Table: impossibility.UniformTable(impossibility.DirBit(grid.SE)),
		Label: "all-se",
	}
	line := config.Line(grid.Origin, grid.E, 7)
	for i := 0; i < b.N; i++ {
		res := sim.Run(alg, line, sim.Options{DetectCycles: true, MaxRounds: 100})
		if res.Status != sim.Livelock {
			b.Fatalf("expected livelock, got %v", res.Status)
		}
	}
}

// BenchmarkE6_BaseNodeScenarios regenerates the Fig. 49 base-node
// determinations over every view in every initial configuration.
func BenchmarkE6_BaseNodeScenarios(b *testing.B) {
	configs := enumerate.Connected(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bases := 0
		for _, c := range configs[:500] {
			for _, pos := range c.Nodes() {
				if _, ok := core.BaseNode(vision.Look(c, pos, 2)); ok {
					bases++
				}
			}
		}
		b.ReportMetric(float64(bases), "bases-found")
	}
}

// BenchmarkE7_RoundsByDiameter regenerates the rounds-vs-diameter table.
func BenchmarkE7_RoundsByDiameter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := theorem2Sweep(b, sweep.Spec{})
		stats := rep.RoundsByDiameter()
		if len(stats) == 0 {
			b.Fatal("no diameter stats")
		}
		b.ReportMetric(float64(stats[len(stats)-1].MaxRounds), "max-rounds-diam6")
	}
}

// BenchmarkE8_Schedulers regenerates the non-FSYNC extension on a fixed
// sample (the full sweep is the example binary; keeping the bench fast).
// The SSYNC leg draws from an explicit per-iteration seeded source,
// streamed across the sample through one RandomSubset per run, so
// every run of the benchmark replays the identical activation schedule.
func BenchmarkE8_Schedulers(b *testing.B) {
	all := enumerate.Connected(7)
	var sample []config.Config
	for i := 0; i < len(all); i += 100 {
		sample = append(sample, all[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gathered := 0
		rng := rand.New(rand.NewSource(2026))
		for _, c := range sample {
			for _, s := range []sched.Scheduler{sched.RoundRobin{}, sched.NewRandomSubsetFrom(rng)} {
				res := sched.Run(core.Gatherer{}, c, s, sim.Options{
					DetectCycles: true, StopOnDisconnect: true, MaxRounds: 5000,
				})
				if res.Status == sim.Gathered {
					gathered++
				}
			}
		}
		b.ReportMetric(float64(gathered), "gathered")
		b.ReportMetric(float64(2*len(sample)), "sample")
	}
}

// BenchmarkE8_SSYNCSweep is the unified-sweep version of the SSYNC
// robustness experiment (E12 in EXPERIMENTS.md): every one of the 3652
// connected 7-robot patterns under 4 seeded random-subset activation
// schedules, aggregated into a per-pattern robustness histogram. It
// runs with KeepCases off, so -benchmem doubles as the constant-memory
// check: allocations stay flat however many runs the sweep holds.
func BenchmarkE8_SSYNCSweep(b *testing.B) {
	cache := core.NewMemo()
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(context.Background(), sweep.Spec{
			Alg:       core.Gatherer{},
			Scheduler: sweep.SSYNC,
			Seeds:     sweep.SeedRange(1, 4),
			MaxRounds: 5000,
			Cache:     cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Patterns != enumerate.KnownCounts[7] {
			b.Fatalf("swept %d patterns, want %d", rep.Patterns, enumerate.KnownCounts[7])
		}
		b.ReportMetric(float64(rep.Gathered()), "gathered")
		b.ReportMetric(float64(rep.FullyRobust()), "fully-robust")
		b.ReportMetric(float64(rep.Total), "runs")
	}
}

// BenchmarkE11_N8Sweep maps the paper's first open problem (§V,
// "different numbers of robots") empirically: the seven-robot algorithm
// on every connected 8-robot pattern — all 16689 of them, enumerated
// and cycle-checked on exact two-tier keys (config.Key128 past the
// 64-bit envelope) — under FSYNC, against the generalized
// minimum-diameter gathering goal (config.GoalFor(8): diameter 3).
// The gathered/stalled/livelock/collision breakdown is the result: the
// first quantitative map of how far the n = 7 construction carries.
// Every status count is pinned, so the bench doubles as the map's
// correctness check.
//
// The sweep runs memoized over one outcome store shared across
// iterations (internal/memo, the PR-6 optimization), like the
// packed-view cache — the convention every sweep bench here uses: the
// first iteration deduplicates the 16689 trajectories into one
// traversal of the configuration graph, and after it every pattern is
// a single store probe — the number the memoized engine is judged by,
// and where the ns/op drop against the PR-5 baseline comes from.
// Reports are bit-identical to the unmemoized sweep, warm or cold (the
// sweep package's equivalence tests check this space exhaustively);
// the pinned breakdown below re-asserts it every iteration. Both
// stores warm up before the timer starts, so the number is the steady
// state at any -benchtime (the CI battery runs 1x); the cold
// full-map build is what E15 times.
func BenchmarkE11_N8Sweep(b *testing.B) {
	cache := core.NewMemo()
	store := memo.NewOutcomes()
	if _, err := sweep.Run(context.Background(), sweep.Spec{
		N: 8, Cache: cache, OutcomeMemo: store,
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(context.Background(), sweep.Spec{
			N:           8,
			Cache:       cache,
			OutcomeMemo: store,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != enumerate.KnownCounts[8] {
			b.Fatalf("enumerated %d patterns, want %d", rep.Total, enumerate.KnownCounts[8])
		}
		if rep.Gathered() != 15364 || rep.ByStatus[sim.Stalled] != 145 ||
			rep.ByStatus[sim.Livelock] != 671 || rep.ByStatus[sim.Collision] != 440 ||
			rep.ByStatus[sim.Disconnected] != 69 || rep.ByStatus[sim.RoundLimit] != 0 {
			b.Fatalf("n=8 map diverged from the pinned breakdown: %s", rep)
		}
		b.ReportMetric(float64(rep.Gathered()), "gathered")
		b.ReportMetric(float64(rep.ByStatus[sim.Stalled]), "stalled")
		b.ReportMetric(float64(rep.ByStatus[sim.Livelock]), "livelock")
		b.ReportMetric(float64(rep.ByStatus[sim.Collision]), "collisions")
		b.ReportMetric(float64(rep.ByStatus[sim.Disconnected]), "disconnected")
		b.ReportMetric(float64(rep.Memo.Hits), "memo-hits")
	}
}

// BenchmarkE15_N9Sweep is the first exact n = 9 FSYNC map (E15): the
// seven-robot algorithm on every connected 9-robot pattern — all 77359
// of them — against the generalized minimum-diameter goal. The space
// is what the outcome memoization unlocks: one deduplicated traversal
// of the 77359-state configuration graph resolves it in seconds. The
// store is fresh each iteration — unlike E11's steady state, this
// times building the whole map from nothing, the experiment itself.
// The breakdown (44122 gathered / 23199 stalled / 5149 livelock /
// 4361 collision / 528 disconnected, no round-limits) is pinned here
// and tested in e15_test.go.
func BenchmarkE15_N9Sweep(b *testing.B) {
	cache := core.NewMemo()
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(context.Background(), sweep.Spec{
			N:           9,
			Cache:       cache,
			OutcomeMemo: memo.NewOutcomes(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != enumerate.KnownCounts[9] {
			b.Fatalf("enumerated %d patterns, want %d", rep.Total, enumerate.KnownCounts[9])
		}
		if rep.Gathered() != 44122 || rep.ByStatus[sim.Stalled] != 23199 ||
			rep.ByStatus[sim.Livelock] != 5149 || rep.ByStatus[sim.Collision] != 4361 ||
			rep.ByStatus[sim.Disconnected] != 528 || rep.ByStatus[sim.RoundLimit] != 0 {
			b.Fatalf("n=9 map diverged from the pinned breakdown: %s", rep)
		}
		b.ReportMetric(float64(rep.Gathered()), "gathered")
		b.ReportMetric(float64(rep.ByStatus[sim.Stalled]), "stalled")
		b.ReportMetric(float64(rep.ByStatus[sim.Livelock]), "livelock")
		b.ReportMetric(float64(rep.MaxRounds), "max-rounds")
		b.ReportMetric(float64(rep.Memo.Created), "states")
	}
}

// BenchmarkE20_N10Sweep is the full n = 10 FSYNC map (E20): the
// seven-robot algorithm on every connected 10-robot pattern — all
// 362671 of them — against the generalized minimum-diameter goal.
// Like E15 it times building the whole map from a fresh outcome store;
// unlike E15 the space itself only exists as a routine benchmark
// because the key-native enumeration serves it (the materializing
// engine spent multiples of the sweep's own time just listing the
// patterns — see the EnumerateN10 pair below for the measured ratio).
// The breakdown (94158 gathered / 213492 stalled / 42434 livelock /
// 8810 collision / 3777 disconnected, no round-limits) is pinned here
// and tested in e20_test.go; stalls now claim a 58.9% majority of the
// space, the E15 stall explosion continuing through a second size.
func BenchmarkE20_N10Sweep(b *testing.B) {
	cache := core.NewMemo()
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(context.Background(), sweep.Spec{
			N:           10,
			Cache:       cache,
			OutcomeMemo: memo.NewOutcomes(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != enumerate.KnownCounts[10] {
			b.Fatalf("enumerated %d patterns, want %d", rep.Total, enumerate.KnownCounts[10])
		}
		if rep.Gathered() != 94158 || rep.ByStatus[sim.Stalled] != 213492 ||
			rep.ByStatus[sim.Livelock] != 42434 || rep.ByStatus[sim.Collision] != 8810 ||
			rep.ByStatus[sim.Disconnected] != 3777 || rep.ByStatus[sim.RoundLimit] != 0 {
			b.Fatalf("n=10 map diverged from the pinned breakdown: %s", rep)
		}
		b.ReportMetric(float64(rep.Gathered()), "gathered")
		b.ReportMetric(float64(rep.ByStatus[sim.Stalled]), "stalled")
		b.ReportMetric(float64(rep.ByStatus[sim.Livelock]), "livelock")
		b.ReportMetric(float64(rep.MaxRounds), "max-rounds")
		b.ReportMetric(float64(rep.Memo.Created), "states")
	}
}

// BenchmarkE20_EnumerateN10Key is the tentpole measurement: the key-native
// engine enumerating the 362671-pattern n = 10 space. Frontier
// generations are packed-key sets — a duplicate candidate costs a
// probe of a flat open-addressed table and no allocation — and the
// result materializes into one contiguous node array at the end.
// Its acceptance floor against the materializing engine it replaced
// (EXPERIMENTS.md, E20) was ≥ 3× ns/op and ≥ 5× allocs/op.
func BenchmarkE20_EnumerateN10Key(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(enumerate.Connected(10)); got != enumerate.KnownCounts[10] {
			b.Fatalf("enumerated %d patterns, want %d", got, enumerate.KnownCounts[10])
		}
	}
}

// BenchmarkE13_AdversarySearch is the exact-defeasibility experiment
// (E13): the memoized safety-game solver decides all 3652 connected
// 7-robot patterns in source order, and every defeat's witness is
// re-simulated through sched.Run inside the pass. The partition is
// pinned — 3228 defeatable, 424 safe — so the bench doubles as a
// correctness check on the solver.
func BenchmarkE13_AdversarySearch(b *testing.B) {
	benchAdversary(b, 7, 3228, 424)
}

// BenchmarkE14_N8Adversary is the n = 8 defeasibility map (E14): the
// same exact decision over all 16689 connected 8-robot patterns, pinned
// at 16412 defeatable / 277 safe. The ADV_HEAVY=1 test adds the
// witness-kind split and the safe-set diameters.
func BenchmarkE14_N8Adversary(b *testing.B) {
	benchAdversary(b, 8, 16412, 277)
}

// benchAdversary runs one sequential adversary-mode sweep of the
// connected n-robot space per iteration and pins its partition.
func benchAdversary(b *testing.B, n, defeatable, safe int) {
	for i := 0; i < b.N; i++ {
		rep, err := sweep.Run(context.Background(), sweep.Spec{
			N:         n,
			Adversary: &adversary.Options{},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Patterns != enumerate.KnownCounts[n] {
			b.Fatalf("decided %d patterns, want %d", rep.Patterns, enumerate.KnownCounts[n])
		}
		if rep.Defeatable != defeatable || rep.SafePatterns != safe {
			b.Fatalf("n=%d: %d defeatable / %d safe, want %d / %d",
				n, rep.Defeatable, rep.SafePatterns, defeatable, safe)
		}
		b.ReportMetric(float64(rep.Defeatable), "defeated")
		b.ReportMetric(float64(rep.SafePatterns), "safe")
		b.ReportMetric(float64(rep.MaxWitnessDepth), "max-depth")
	}
}

// BenchmarkE9_RelaxedConnectivity regenerates the relaxed-connectivity
// extension (paper §V future work 2) on a seeded 2000-pattern sample:
// the unmodified algorithm is not correct on visibility-connected starts.
func BenchmarkE9_RelaxedConnectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(2026))
		gathered := 0
		const n = 2000
		for j := 0; j < n; j++ {
			c := enumerate.RandomWithin(7, 2, rng)
			res := sim.Run(core.Gatherer{}, c, sim.Options{DetectCycles: true, MaxRounds: 3000})
			if res.Status == sim.Gathered {
				gathered++
			}
		}
		b.ReportMetric(float64(gathered), "gathered")
		b.ReportMetric(float64(n), "sample")
	}
}

// BenchmarkE17_DistOverhead prices the distributed sweep testbed
// (internal/dist): the full n = 8 FSYNC map through the coordinator —
// 12 shards over 3 in-process workers, every case serialized through
// the real wire format and merged through the shared aggregator —
// versus BenchmarkE11_N8Sweep's direct in-process sweep.Run of the
// same space. The delta is pure coordination: shard planning, JSONL
// encode/decode, stream verification, atomic absorption. The in-process
// backend keeps process spawning out of the measurement (that cost
// belongs to the backend, not the coordinator), and the merged report
// is checked against the pinned E11 breakdown every iteration — the
// bit-identity contract, priced and enforced in the same loop.
func BenchmarkE17_DistOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := dist.Run(context.Background(), dist.Options{
			Spec:    sweep.SpecDesc{N: 8},
			Shards:  12,
			Workers: 3,
			Backend: dist.InprocBackend{},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != enumerate.KnownCounts[8] {
			b.Fatalf("merged %d patterns, want %d", rep.Total, enumerate.KnownCounts[8])
		}
		if rep.Gathered() != 15364 || rep.ByStatus[sim.Stalled] != 145 ||
			rep.ByStatus[sim.Livelock] != 671 || rep.ByStatus[sim.Collision] != 440 ||
			rep.ByStatus[sim.Disconnected] != 69 || rep.ByStatus[sim.RoundLimit] != 0 {
			b.Fatalf("distributed n=8 map diverged from the pinned breakdown: %s", rep)
		}
		b.ReportMetric(float64(rep.Gathered()), "gathered")
		b.ReportMetric(12, "shards")
	}
}

// e18Patterns is the verdict-service bench's query mix: table-covered
// patterns across the n spectrum (east lines for 2 ≤ n ≤ 8 plus the
// E4-adjacent 7-robot near-goal cluster), parsed once.
func e18Patterns(b *testing.B) []config.Config {
	b.Helper()
	keys := []string{"0,0;1,0;2,0;0,1;1,1;2,1;1,2"}
	for n := 2; n <= 8; n++ {
		key := "0,0"
		for q := 1; q < n; q++ {
			key += fmt.Sprintf(";%d,0", q)
		}
		keys = append(keys, key)
	}
	cfgs := make([]config.Config, len(keys))
	for i, k := range keys {
		c, err := config.ParseKey(k)
		if err != nil {
			b.Fatal(err)
		}
		cfgs[i] = c
	}
	return cfgs
}

// BenchmarkE18_VerdictService is the verdict service's hot path (E18):
// per-pattern verdict queries answered from the generated n ≤ 8 table —
// one Key128 computation and one map probe per request, no engine runs.
// allocs/op is the acceptance criterion: the hit path performs zero
// allocations per request, and the baseline gate (allocs/op over a
// 0-alloc baseline) fails CI on the first allocation that creeps in.
// Every answer is source-checked (table, never live) and the 7-robot
// cluster's verdict is pinned against the table's E2/E12/E13 story.
func BenchmarkE18_VerdictService(b *testing.B) {
	svc, err := serve.NewService(serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cfgs := e18Patterns(b)
	rec, src, err := svc.Verdict(ctx, "", cfgs[0]) // builds the lazy table map
	if err != nil || src != serve.SourceTable {
		b.Fatalf("warm query: src=%v err=%v", src, err)
	}
	if rec.FSYNCStatus() != sim.Gathered || rec.Robust() != serve.TableSchedules ||
		rec.Adversary() != serve.AdvSafe {
		b.Fatalf("pinned 7-robot verdict diverged: %v/%d/%v",
			rec.FSYNCStatus(), rec.Robust(), rec.Adversary())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, src, err := svc.Verdict(ctx, "", cfgs[i%len(cfgs)]); err != nil || src != serve.SourceTable {
			b.Fatalf("hit path degraded at %d: src=%v err=%v", i, src, err)
		}
	}
}

// BenchmarkE18_VerdictMiss prices the miss path's steady state: a
// pattern outside the table (n = 9) served from the single-flight
// store after its one live solve — the repeat-query cost a client of
// novel patterns actually pays.
func BenchmarkE18_VerdictMiss(b *testing.B) {
	svc, err := serve.NewService(serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cfg, err := config.ParseKey("0,0;1,0;2,0;3,0;4,0;5,0;6,0;7,0;8,0")
	if err != nil {
		b.Fatal(err)
	}
	if _, src, err := svc.Verdict(ctx, "", cfg); err != nil || src != serve.SourceSolved {
		b.Fatalf("first query: src=%v err=%v", src, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, src, err := svc.Verdict(ctx, "", cfg); err != nil || src != serve.SourceCached {
			b.Fatalf("repeat query at %d: src=%v err=%v", i, src, err)
		}
	}
	b.StopTimer()
	if got := svc.SolveCount(""); got != 1 {
		b.Fatalf("%d solves for one pattern, want 1", got)
	}
}

// BenchmarkE18_VerdictHTTP is the end-to-end request cost: the same
// table-hit query through cmd/verdictd's HTTP front-end (parse, serve,
// JSON encode, transport over loopback). The delta against
// BenchmarkE18_VerdictService is pure transport — the service layer
// itself stays allocation-free.
func BenchmarkE18_VerdictHTTP(b *testing.B) {
	svc, err := serve.NewService(serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	url := ts.URL + "/verdict?key=0,0:1,0:2,0:0,1:1,1:2,1:1,2"
	fetch := func() int {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := fetch(); code != 200 {
		b.Fatalf("warm request: status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := fetch(); code != 200 {
			b.Fatalf("status %d at %d", code, i)
		}
	}
}
