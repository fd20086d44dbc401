package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/artifact"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// This file is the verdict-table generator's brain; cmd/verdictgen is a
// thin main over it so the fixed-point tests can recompute table
// prefixes in-process and byte-compare against the committed
// verdicts.bin.
//
// Every axis of an entry is deterministic by construction, which is
// what makes "regenerate and byte-compare" a meaningful test:
//
//   - FSYNC outcome: the simulator is deterministic.
//   - SSYNC robustness: seeds 1..TableSchedules each replay one exact
//     schedule (the sweep.SSYNC factory).
//   - Defeasibility: the exact solver — verdicts, witness kinds and
//     depths are interleaving-independent at any worker count.

// GenerateTable recomputes the verdict table for minN ≤ n ≤ maxN from
// the live engines — one FSYNC sweep, one TableSchedules-seed SSYNC
// robustness sweep, and one solver-only adversary sweep per n, all
// sharing one view→move cache — and returns it as a verdicts.bin
// artifact. It refuses to produce a table the loader would refuse.
// logf, when non-nil, receives per-n progress.
func GenerateTable(ctx context.Context, minN, maxN, workers int, logf func(string, ...any)) ([]byte, error) {
	if minN < 1 || maxN < minN {
		return nil, fmt.Errorf("serve: bad table bounds [%d, %d]", minN, maxN)
	}
	if maxN > adversary.MaxRobots {
		return nil, fmt.Errorf("serve: table bound n=%d exceeds the solver envelope (%d)", maxN, adversary.MaxRobots)
	}
	cache := core.NewMemo()
	var payload []byte
	for n := minN; n <= maxN; n++ {
		before := len(payload)
		var err error
		if payload, err = computeN(ctx, n, workers, cache, payload); err != nil {
			return nil, fmt.Errorf("serve: n=%d: %w", n, err)
		}
		if logf != nil {
			logf("verdictgen: n=%d: %d patterns (total %d)", n, (len(payload)-before)/tableRecordSize, len(payload)/tableRecordSize)
		}
	}
	var b bytes.Buffer
	if _, err := artifact.Write(&b, TableKind, [2]uint32{uint32(minN), uint32(maxN)}, payload); err != nil {
		return nil, err
	}
	if _, err := decodeTable(b.Bytes()); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// computeN appends the n-robot rows, in ascending key order, to
// payload: three sweeps over the same connected source, aggregated per
// pattern index.
func computeN(ctx context.Context, n, workers int, cache *core.Memo, payload []byte) ([]byte, error) {
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

	for i := range aggs {
		a := &aggs[i]
		rec, err := checkExact(a.status, a.rounds, a.moves, a.robust, a.adv, a.wkind, a.depth)
		if err != nil {
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		payload = binary.LittleEndian.AppendUint64(payload, a.key.Hi)
		payload = binary.LittleEndian.AppendUint64(payload, a.key.Lo)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(rec))
	}
	return payload, nil
}
