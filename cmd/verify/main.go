// Command verify reproduces the paper's Theorem 2 evaluation and its
// extensions on the unified sweep engine (internal/sweep): it runs the
// gathering algorithm from every initial pattern of a sweep space under
// a scheduler and reports the aggregated outcome table.
//
// The default invocation is the paper's claim itself — the full
// algorithm from all 3652 connected 7-robot patterns under FSYNC — and
// the exit status asserts it: verify exits non-zero when the sweep does
// not fully gather, so CI can check Theorem 2 directly. Exploratory
// sweeps that are expected to fail (the n = 8 open-problem map, the
// SSYNC robustness map, relaxed connectivity) pass -allow-failures.
//
//	-n N          sweep every connected N-robot pattern (E11: -n 8)
//	-range R      relax the space to visibility-R-connected patterns
//	              (E9: -range 2; the full n = 7 range-2 space is ≈2.6 M
//	              patterns, swept with constant memory)
//	-sched S      fsync (default), ssync (seeded random subsets),
//	              cent (round-robin centralized adversary), or adv
//	              (exact adversarial decision per pattern — the
//	              internal/adversary safety-game solver; E13: -sched adv)
//	-seeds M      run each pattern under M activation schedules
//	              (seeds 1..M); the report aggregates per-pattern
//	              robustness (E12: -sched ssync -seeds 32)
//	-workers N    worker pool size (0 = GOMAXPROCS). With -sched adv,
//	              0 keeps the sequential solver (deterministic
//	              solver_states); pass an explicit N > 1 for the
//	              pattern-parallel executor (E14: -n 8 -workers 8)
//	-memo         share one configuration→outcome store across the
//	              whole sweep (internal/memo; default on): each shared
//	              trajectory suffix is walked once and spliced
//	              everywhere else, with reports bit-identical to
//	              -memo=false. The n = 9 FSYNC map (E15) runs on it;
//	              with -progress the hit/miss/states summary goes to
//	              stderr. Ignored by -sched adv, whose solver keeps its
//	              own game-state memo
//	-json         print the aggregated report as JSON
//	-cases F      stream every per-run result to F as JSON lines while
//	              sweeping (constant memory: nothing is retained). The
//	              stream opens with a header record (schema version,
//	              spec digest, source range) so downstream mergers
//	              detect version skew; per-line consumers skip it
//	-worker LO:HI worker mode for the distributed testbed (cmd/sweepd,
//	              internal/dist): execute only the source-range shard
//	              [LO, HI) and emit the framed JSONL stream — header,
//	              cases with full-sweep global indices, trailing shard
//	              summary — on stdout. Gathering failures do not affect
//	              the exit status (the coordinator owns the verdict)
//	-index F,...  serve the sweep space from pre-built pattern-index
//	              artifacts (cmd/enumgen, sha256-verified at load)
//	              instead of enumerating it; in -worker mode the shard
//	              seeks straight to [LO, HI) in the flat key array
//	-stats        print rounds histogram and per-diameter table
//	-classes      print the failure taxonomy (status × initial diameter)
//
// Usage:
//
//	verify [-alg full|no-table|no-reconstruction|paper|three|idle|greedy]
//	       [-n 7] [-range 1] [-sched fsync|ssync|cent|adv] [-seeds 1]
//	       [-max-rounds N] [-workers N] [-memo] [-stats] [-classes]
//	       [-json] [-cases out.jsonl] [-worker lo:hi] [-allow-failures]
//	       [-progress]
//
// Exit status: 0 when every run gathered (every pattern safe, for
// -sched adv) or -allow-failures was given; 1 when the sweep completed
// but some run did not gather (some pattern defeatable); 2 on usage or
// internal errors. Diagnostics and -progress go to stderr — stdout
// carries only the report (and is machine-parseable under -json).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/adversary"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	// The sweep-shaping flags are the shared cliflags vocabulary; the
	// locals below alias the registered pointers so the body reads as
	// before.
	shared := cliflags.Register(flag.CommandLine, cliflags.SweepSet)
	n, visRange := shared.N, shared.VisRange
	schedName, seeds, maxRounds := shared.Sched, shared.Seeds, shared.MaxRounds
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS; with -sched adv, 0 = the sequential solver, which keeps solver_states deterministic)")
	memoOn := flag.Bool("memo", true, "share one configuration→outcome store across the sweep (bit-identical reports; ignored by -sched adv)")
	stats := flag.Bool("stats", false, "print rounds histogram and per-diameter table")
	classes := flag.Bool("classes", false, "print the failure taxonomy (status × initial diameter)")
	jsonOut := flag.Bool("json", false, "print the aggregated report as JSON")
	casesPath := flag.String("cases", "", "stream per-run results to this file as JSON lines")
	workerRange := flag.String("worker", "", "worker mode: execute only the source-range shard LO:HI and emit the framed JSONL stream (header, cases, shard summary) on stdout")
	allowFailures := flag.Bool("allow-failures", false, "exit 0 even when the sweep does not fully gather")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	indexPath := flag.String("index", "", "comma-separated pattern-index files (cmd/enumgen): serve the sweep space from the artifact instead of enumerating")
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: verify [flags]

Runs the gathering algorithm from every initial pattern of a sweep
space and reports the aggregated outcome table (the paper's Theorem 2
evaluation and its extensions).

Schedulers (-sched):
  fsync   all robots every round — the paper's model (default)
  ssync   seeded random activation subsets; -seeds M runs each pattern
          under M schedules (E12)
  cent    centralized round-robin adversary, one robot per round
  adv     exact adversarial decision per pattern: the safety-game
          solver of internal/adversary (E13); defeated patterns report
          their witness kind; -seeds and -max-rounds do not apply

Memoization (-memo, default on): one shared configuration→outcome
store turns the sweep into a deduplicated traversal of the
configuration graph — FSYNC outcomes are pure functions of the
pattern, so every shared trajectory suffix is walked once. Reports
are bit-identical to -memo=false at every worker count; -progress
prints the store's hit/miss/states summary to stderr. -sched adv
ignores it (the solver keeps its own game-state memo).

Distributed operation (-worker, cmd/sweepd): -worker LO:HI executes
only the source-range shard [LO, HI) and emits the framed JSONL
stream of the distributed testbed — a header record (schema version,
spec digest, shard), one case per run with full-sweep global indices,
and a trailing shard summary — on stdout. cmd/sweepd coordinates such
shards across worker processes and merges them into a report
bit-identical to a single-process run. Plain -cases files open with
the same header record so downstream mergers detect version skew;
consumers of the per-run lines skip the first record.

Exit status:
  0  every run gathered (every pattern safe under -sched adv), or
     -allow-failures was given; a -worker shard that completed
  1  the sweep completed but some run did not gather
  2  usage or internal error

Diagnostics and -progress write to stderr; stdout carries only the
report, machine-parseable under -json (per-run JSONL via -cases).

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()

	alg, err := shared.Algorithm()
	if err != nil {
		fmt.Fprintf(os.Stderr, "verify: %v\n", err)
		os.Exit(2)
	}
	if *n > enumerate.MaxKeyN {
		// Refused up front: every path below (plain, -cases, -range,
		// -worker) would otherwise start enumerating first.
		fmt.Fprintf(os.Stderr, "verify: -n %d is past the largest enumerable size %d\n", *n, enumerate.MaxKeyN)
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "verify: -seeds must be at least 1")
		os.Exit(2)
	}
	if *jsonOut && *stats {
		// -stats needs retained cases and renders text tables the JSON
		// report does not carry; rejecting beats silently retaining
		// every case and printing nothing. (-classes data IS in the
		// JSON, as by_class.)
		fmt.Fprintln(os.Stderr, "verify: -stats and -json are mutually exclusive (use -cases for per-run JSON)")
		os.Exit(2)
	}

	indexSet, err := sweep.LoadIndexes(*indexPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "verify: loading pattern index: %v\n", err)
		os.Exit(2)
	}

	// Worker mode: one shard of a distributed sweep, framed JSONL on
	// stdout (internal/dist wire format), nothing else. The coordinator
	// aggregates, so every report/exit-code flag is inapplicable.
	if *workerRange != "" {
		if *jsonOut || *stats || *classes || *progress || *casesPath != "" {
			fmt.Fprintln(os.Stderr, "verify: -worker emits only the framed case stream; -json/-stats/-classes/-progress/-cases do not apply")
			os.Exit(2)
		}
		shard, err := sweep.ParseRange(*workerRange)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verify: %v\n", err)
			os.Exit(2)
		}
		var st *dist.WorkerState
		if indexSet != nil {
			st = &dist.WorkerState{Sources: indexSet}
		}
		if err := dist.RunShard(context.Background(), shared.Desc(), shard, os.Stdout, st); err != nil {
			fmt.Fprintf(os.Stderr, "verify: %v\n", err)
			os.Exit(2)
		}
		return
	}

	// One shared view→move cache for the whole invocation: every worker
	// and every schedule of every pattern hits the same table.
	spec := sweep.Spec{
		N:         *n,
		Alg:       alg,
		Workers:   *workers,
		MaxRounds: *maxRounds,
		Cache:     core.NewMemo(),
		Seeds:     sweep.SeedRange(1, *seeds),
		KeepCases: *stats,
	}
	switch *schedName {
	case "fsync":
		// Spec default: sched.FSYNC, every robot every round.
	case "ssync":
		spec.Scheduler = sweep.SSYNC
	case "cent":
		spec.Scheduler = sweep.CENT
	case "adv":
		// Exact per-pattern adversarial decision (E13/E14). The seeds
		// axis is meaningless (the adversary is universally
		// quantified), and so is the round budget: the solver decides
		// the whole game graph, whose plays have no length limit. The
		// game treats disconnection as terminal (so the relaxed
		// range-1-disconnected spaces are out of its domain).
		// -workers > 1 decides patterns in parallel over the shared
		// concurrent solver memo; the default stays sequential, which
		// keeps per-pattern state counts deterministic.
		if *seeds > 1 {
			fmt.Fprintln(os.Stderr, "verify: -sched adv decides all schedules at once; -seeds does not apply")
			os.Exit(2)
		}
		if *maxRounds > 0 {
			fmt.Fprintln(os.Stderr, "verify: -sched adv decides plays of any length; -max-rounds does not apply")
			os.Exit(2)
		}
		if *visRange > 1 {
			fmt.Fprintln(os.Stderr, "verify: -sched adv requires the adjacency-connected space (-range 1)")
			os.Exit(2)
		}
		if *stats {
			// Safe patterns involve no run, so the rounds histogram
			// would aggregate zeros — reject like the other
			// inapplicable combinations.
			fmt.Fprintln(os.Stderr, "verify: -stats does not apply to -sched adv (safe patterns have no run)")
			os.Exit(2)
		}
		spec.Adversary = &adversary.Options{Alg: alg}
	default:
		fmt.Fprintf(os.Stderr, "verify: unknown scheduler %q\n", *schedName)
		os.Exit(2)
	}
	if *visRange > 1 {
		spec.Source = sweep.ConnectedWithin(*n, *visRange)
	} else if src, ok := indexSet.SourceFor(shared.Desc()); ok {
		spec.Source = src
	}
	if *memoOn && spec.Adversary == nil {
		spec.OutcomeMemo = memo.NewOutcomes()
	}
	if *progress {
		spec.Progress = func(done, total int) {
			if done%5000 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "verify: %d/%d runs\r", done, total)
			}
		}
	}

	// Per-run streaming output: each result is written as it is
	// delivered (in order), never retained — a 2.6 M-run sweep streams
	// in O(workers) memory. The stream opens with a version header
	// (schema version, spec digest, source range) so a merger fed by
	// mismatched binaries fails loudly instead of mis-merging; per-line
	// consumers just skip the first record.
	var visit func(sweep.CaseResult) error
	var casesBuf *bufio.Writer
	var casesFile *os.File
	if *casesPath != "" {
		f, err := os.Create(*casesPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "verify: %v\n", err)
			os.Exit(2)
		}
		casesFile = f
		casesBuf = bufio.NewWriter(f)
		enc := json.NewEncoder(casesBuf)
		if spec.Source == nil {
			spec.Source = sweep.Connected(*n) // the Stream default, materialized for the header's range
		}
		full := sweep.Range{Lo: 0, Hi: spec.Source.Count()}
		if err := enc.Encode(dist.Header{Schema: dist.SchemaVersion, Spec: shared.Desc().Digest(), Shard: full}); err != nil {
			fmt.Fprintf(os.Stderr, "verify: %v\n", err)
			os.Exit(2)
		}
		visit = func(c sweep.CaseResult) error {
			return enc.Encode(dist.CaseFromResult(c, sweep.Range{}, *seeds))
		}
	}

	report, err := sweep.Stream(context.Background(), spec, visit)
	if casesBuf != nil {
		if err == nil {
			err = casesBuf.Flush()
		}
		if cerr := casesFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "verify: %v\n", err)
		os.Exit(2)
	}
	if *progress {
		fmt.Fprintln(os.Stderr)
		if spec.OutcomeMemo != nil {
			fmt.Fprintf(os.Stderr, "verify: memo: %d hits / %d misses, %d states created\n",
				report.Memo.Hits, report.Memo.Misses, report.Memo.Created)
		}
	}

	if err := report.Print(os.Stdout, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "verify: %v\n", err)
		os.Exit(2)
	}

	if *classes && !*jsonOut {
		type row struct {
			class sweep.Class
			count int
		}
		rows := make([]row, 0, len(report.ByClass))
		for cl, count := range report.ByClass {
			rows = append(rows, row{cl, count})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].class.Status != rows[j].class.Status {
				return rows[i].class.Status < rows[j].class.Status
			}
			return rows[i].class.Diameter < rows[j].class.Diameter
		})
		fmt.Println("\nfailure taxonomy (status × initial diameter):")
		for _, r := range rows {
			fmt.Printf("%-18s %6d\n", r.class, r.count)
		}
	}

	if *stats && !*jsonOut {
		rounds := metrics.NewHistogram()
		for _, c := range report.Cases {
			if c.Status == sim.Gathered {
				rounds.Add(c.Rounds)
			}
		}
		fmt.Printf("\nrounds to gather: %s\n%s", rounds.Summary(), rounds)
		fmt.Println("\nby initial diameter:")
		fmt.Println("diam  count  max-rounds  mean-rounds")
		for _, s := range report.RoundsByDiameter() {
			fmt.Printf("%4d %6d %11d %12.2f\n", s.Diameter, s.Count, s.MaxRounds, s.MeanRounds)
		}
	}

	if !report.AllGathered() && !*allowFailures {
		os.Exit(1)
	}
}
