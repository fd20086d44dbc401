// Command adversary computes the exact SSYNC defeatable set
// (experiment E13): for every initial pattern of a sweep space it
// decides with the exact memoized safety-game solver whether some
// activation schedule prevents gathering, and streams one JSONL
// verdict per pattern to stdout. Every defeatable verdict carries a
// replayable witness schedule (activation subsets, round by round,
// prefix + forever-looped cycle) that has already been re-simulated
// through the ordinary sched/sim machinery and confirmed
// non-gathering.
//
// The default invocation is the headline E13 run:
//
//	adversary -n 7
//
// decides all 3652 connected 7-robot patterns (seconds). The summary
// — the exact defeatable count, the CENT round-robin 166 being a
// lower bound — goes to stderr so stdout stays machine-parseable.
//
//	-n N              decide every connected N-robot pattern
//	-alg A            algorithm under attack (full, no-table,
//	                  no-reconstruction, paper, three, idle, greedy)
//	-workers N        decide patterns in parallel over a shared
//	                  concurrent solver memo (0 = GOMAXPROCS; default
//	                  1, one worker in source order). Verdicts, witnesses
//	                  and the summary are identical at any worker
//	                  count; only the per-pattern "states" counts
//	                  depend on which worker reached a shared game
//	                  state first. The n = 8 map (E14) is the workload
//	                  this exists for.
//	-no-witness       omit the witness schedules from the JSONL
//	                  (verdict lines only)
//	-safe-summary     print the diameter × robot-count histogram of
//	                  the Safe verdicts on stderr — the safe-set
//	                  characterization of ROADMAP item (b)
//	-progress         report progress on stderr
//
// Exit status: 0 when every pattern was decided (defeats are the
// result, not a failure), 2 on usage or internal errors — including a
// witness that fails its replay confirmation, which would mean the
// solver and the simulator disagree on the game's dynamics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"repro/internal/adversary"
	"repro/internal/cliflags"
	"repro/internal/sweep"
)

// verdictLine is the JSONL schema: one line per pattern. Prefix/Cycle
// are the witness schedule — each entry one round's activated indices
// into the round's sorted node list (the sched.Scheduler contract);
// replaying Prefix then Cycle forever is the defeating schedule.
type verdictLine struct {
	Pattern int     `json:"pattern"`
	Initial string  `json:"initial"`
	Verdict string  `json:"verdict"`          // defeatable | safe
	Method  string  `json:"method"`           // solver
	Kind    string  `json:"kind,omitempty"`   // cycle | collision | disconnection | stall
	Replay  string  `json:"replay,omitempty"` // confirmed replay status of the witness
	Depth   int     `json:"depth,omitempty"`  // strategy length: prefix + one cycle lap
	States  int     `json:"states,omitempty"` // new solver states explored for this pattern
	Prefix  [][]int `json:"prefix,omitempty"` // witness stem (may be empty for immediate cycles)
	Cycle   [][]int `json:"cycle,omitempty"`  // witness loop, replayed forever
}

func main() {
	// -alg and -n are the shared cliflags vocabulary (the adversary has
	// no scheduler axis: it is universally quantified over schedules).
	shared := cliflags.Register(flag.CommandLine, cliflags.FlagAlg|cliflags.FlagN)
	n := shared.N
	workers := flag.Int("workers", 1, "parallel decision workers over the shared solver memo (0 = GOMAXPROCS, 1 = sequential)")
	noWitness := flag.Bool("no-witness", false, "omit witness schedules from the JSONL output")
	safeSummary := flag.Bool("safe-summary", false, "print the diameter histogram of the safe patterns on stderr")
	progress := flag.Bool("progress", false, "report progress on stderr")
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "adversary: -workers must be non-negative")
		os.Exit(2)
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	alg, err := shared.Algorithm()
	if err != nil {
		fmt.Fprintf(os.Stderr, "adversary: %v\n", err)
		os.Exit(2)
	}

	spec := sweep.Spec{
		N:         *n,
		Alg:       alg,
		Workers:   *workers,
		Adversary: &adversary.Options{Alg: alg},
	}
	if *progress {
		spec.Progress = func(done, total int) {
			if done%500 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "adversary: %d/%d patterns\r", done, total)
			}
		}
	}

	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	safeByDiameter := map[int]int{}
	visit := func(c sweep.CaseResult) error {
		v := c.Verdict
		if *safeSummary && v.Kind == adversary.Safe {
			safeByDiameter[c.Initial.Diameter()]++
		}
		line := verdictLine{
			Pattern: c.Pattern,
			Initial: c.Initial.Key(),
			Verdict: v.Kind.String(),
			Method:  v.Method,
			Depth:   v.Depth,
			States:  v.States,
		}
		if w := v.Witness; w != nil {
			line.Kind = w.Kind.String()
			line.Replay = v.ReplayStatus.String()
			if !*noWitness {
				line.Prefix = w.Prefix
				line.Cycle = w.Cycle
			}
		}
		return enc.Encode(line)
	}

	report, err := sweep.Stream(context.Background(), spec, visit)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "adversary: %v\n", err)
		os.Exit(2)
	}
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "adversary: n=%d, %s: %d/%d defeatable, %d safe; game states %d, max strategy depth %d; every witness replay confirmed non-gathering\n",
		report.Robots, report.Algorithm, report.Defeatable, report.Patterns, report.SafePatterns,
		report.SolverStates, report.MaxWitnessDepth)
	if report.Memo.Lookups() > 0 {
		fmt.Fprintf(os.Stderr, "adversary: memo: %d hits / %d misses, %d states created (shared across patterns)\n",
			report.Memo.Hits, report.Memo.Misses, report.Memo.Created)
	}
	if *safeSummary {
		// The safe-set characterization (ROADMAP item b): where, by
		// initial diameter, does the adversary fail to break the
		// algorithm? Safe patterns concentrate at small diameter.
		diams := make([]int, 0, len(safeByDiameter))
		for d := range safeByDiameter {
			diams = append(diams, d)
		}
		sort.Ints(diams)
		fmt.Fprintf(os.Stderr, "adversary: safe-summary: n=%d, %d safe patterns by initial diameter\n",
			report.Robots, report.SafePatterns)
		for _, d := range diams {
			fmt.Fprintf(os.Stderr, "adversary:   diameter %-2d %6d\n", d, safeByDiameter[d])
		}
		if len(diams) == 0 {
			fmt.Fprintln(os.Stderr, "adversary:   (no safe patterns)")
		}
	}
}
