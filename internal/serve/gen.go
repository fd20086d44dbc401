package serve

import (
	"bytes"
	"context"
	"fmt"
	"go/format"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// This file is the verdict-table generator's brain; cmd/verdictgen is a
// thin main over it so the fixed-point tests can recompute table
// prefixes in-process and byte-compare against the committed file.
//
// Every axis of an entry is deterministic by construction, which is
// what makes "regenerate and byte-compare" a meaningful test:
//
//   - FSYNC outcome: the simulator is deterministic.
//   - SSYNC robustness: seeds 1..TableSchedules each replay one exact
//     schedule (the sweep.SSYNC factory).
//   - Defeasibility: the exact solver — verdicts, witness kinds and
//     depths are interleaving-independent at any worker count.

// Entry is one computed table row.
type Entry struct {
	Key config.Key128
	Rec Record
}

// ComputeEntries recomputes the verdict table for minN ≤ n ≤ maxN from
// the live engines: one FSYNC sweep, one TableSchedules-seed SSYNC
// robustness sweep, and one solver-only adversary sweep per n, all
// sharing one view→move cache. Entries come back in table order (n
// ascending, enumeration order within n) together with the offsets
// slice (offsets[i] = first index of n = minN+i; last element =
// len(entries)). logf, when non-nil, receives per-n progress.
func ComputeEntries(ctx context.Context, minN, maxN, workers int, logf func(string, ...any)) ([]Entry, []int, error) {
	if minN < 1 || maxN < minN {
		return nil, nil, fmt.Errorf("serve: bad table bounds [%d, %d]", minN, maxN)
	}
	if maxN > adversary.MaxRobots {
		return nil, nil, fmt.Errorf("serve: table bound n=%d exceeds the solver envelope (%d)", maxN, adversary.MaxRobots)
	}
	cache := core.NewMemo()
	var entries []Entry
	offsets := make([]int, 0, maxN-minN+2)
	for n := minN; n <= maxN; n++ {
		offsets = append(offsets, len(entries))
		ents, err := computeN(ctx, n, workers, cache)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: n=%d: %w", n, err)
		}
		entries = append(entries, ents...)
		if logf != nil {
			logf("verdictgen: n=%d: %d patterns (total %d)", n, len(ents), len(entries))
		}
	}
	offsets = append(offsets, len(entries))
	return entries, offsets, nil
}

// computeN computes the n-robot rows: three sweeps over the same
// connected source, aggregated per pattern index.
func computeN(ctx context.Context, n, workers int, cache *core.Memo) ([]Entry, error) {
	src := sweep.Connected(n)
	count := src.Count()
	type patAgg struct {
		key    config.Key128
		status sim.Status
		rounds int
		moves  int
		robust int
		adv    AdvVerdict
		wkind  sim.Status
		depth  int
	}
	aggs := make([]patAgg, count)

	// FSYNC and SSYNC sweeps share one outcome store (the documented
	// compatible pairing); it carries gathered trajectory suffixes from
	// the exhaustive pass into the robustness pass.
	outcomes := memo.NewOutcomes()
	_, err := sweep.Stream(ctx, sweep.Spec{
		N: n, Source: src, Workers: workers, Cache: cache, OutcomeMemo: outcomes,
	}, func(cr sweep.CaseResult) error {
		k, exact := cr.Initial.Key128()
		if !exact {
			return fmt.Errorf("pattern %d (%s): no exact Key128", cr.Pattern, cr.Initial.Key())
		}
		a := &aggs[cr.Pattern]
		a.key, a.status, a.rounds, a.moves = k, cr.Status, cr.Rounds, cr.Moves
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fsync sweep: %w", err)
	}

	_, err = sweep.Stream(ctx, sweep.Spec{
		N: n, Source: src, Workers: workers, Cache: cache, OutcomeMemo: outcomes,
		Scheduler: sweep.SSYNC, Seeds: sweep.SeedRange(1, TableSchedules),
	}, func(cr sweep.CaseResult) error {
		if cr.Status == sim.Gathered {
			aggs[cr.Pattern].robust++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ssync robustness sweep: %w", err)
	}

	_, err = sweep.Stream(ctx, sweep.Spec{
		N: n, Source: src, Workers: workers, Cache: cache,
		Adversary: &adversary.Options{},
	}, func(cr sweep.CaseResult) error {
		a := &aggs[cr.Pattern]
		switch cr.Verdict.Kind {
		case adversary.Safe:
			a.adv = AdvSafe
		case adversary.Defeatable:
			a.adv = AdvDefeatable
			a.wkind = cr.Verdict.Witness.Status()
			a.depth = cr.Verdict.Depth
		default:
			a.adv = AdvUndecided
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("adversary sweep: %w", err)
	}

	entries := make([]Entry, count)
	for i := range aggs {
		a := &aggs[i]
		rec, err := checkExact(a.status, a.rounds, a.moves, a.robust, a.adv, a.wkind, a.depth)
		if err != nil {
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		entries[i] = Entry{Key: a.key, Rec: rec}
	}
	return entries, nil
}

// RenderTable renders the generated-file source for the given entries —
// gofmt'd, byte-deterministic, so regeneration either reproduces the
// committed file exactly or the diff is the finding.
func RenderTable(minN, maxN int, offsets []int, entries []Entry) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `// Code generated by cmd/verdictgen; DO NOT EDIT.

package serve

// verdictTableSeed holds the precomputed verdict Record of every
// connected pattern with verdictTableMinN <= n <= verdictTableMaxN,
// ordered by robot count ascending then enumeration order within each
// n. Each row is the pattern's exact translation-invariant
// config.Key128 (Hi, Lo) and its packed Record (see record.go): the
// deterministic FSYNC outcome, gathered-schedule count over SSYNC
// seeds 1..TableSchedules, and the solver-only exact defeasibility
// verdict with its witness kind and depth. Regenerate with:
//
//	go generate ./internal/serve
const (
	verdictTableMinN = %d
	verdictTableMaxN = %d
)

// verdictTableOffsets[i] is the index of the first entry with
// n = verdictTableMinN + i; the final element is len(verdictTableSeed).
var verdictTableOffsets = %#v

var verdictTableSeed = []verdictEntry{
`, minN, maxN, offsets)
	for _, e := range entries {
		fmt.Fprintf(&b, "\t{%#x, %#x, %#x},\n", e.Key.Hi, e.Key.Lo, uint64(e.Rec))
	}
	b.WriteString("}\n")
	return format.Source(b.Bytes())
}
