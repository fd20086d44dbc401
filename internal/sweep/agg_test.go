package sweep_test

// The aggregator's contract: absorbing a sweep's cases in any
// pattern-grouped order reproduces the engine's own report, and a
// snapshot taken at a pattern boundary — the unit of checkpointing in
// the distributed testbed — restores to an aggregator that finishes
// bit-identically to one that never paused.

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/adversary"
	"repro/internal/sweep"
)

// reportJSON renders a report the way cmd/verify -json does; the
// scheduling-dependent diagnostics (PeakPending, memo counters) are
// excluded from the marshalled form, so this is the bit-identity the
// distributed testbed promises.
func reportJSON(t *testing.T, r *sweep.Report) string {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func ssyncSpec(t *testing.T, n, seeds int) (sweep.SpecDesc, *sweep.Report) {
	t.Helper()
	d := sweep.SpecDesc{N: n, Sched: "ssync", Seeds: seeds}
	d.Normalize()
	spec, err := d.Spec()
	if err != nil {
		t.Fatal(err)
	}
	spec.KeepCases = true
	ref, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return d, ref
}

func TestAggregatorMatchesEngine(t *testing.T) {
	d, ref := ssyncSpec(t, 5, 3)
	meta, err := d.Meta()
	if err != nil {
		t.Fatal(err)
	}
	agg := sweep.NewAggregator(meta, false)
	for _, cr := range ref.Cases {
		agg.Absorb(cr)
	}
	if got, want := reportJSON(t, agg.Finish()), reportJSON(t, ref); got != want {
		t.Fatalf("re-aggregated report differs from engine report:\n%s\nvs\n%s", got, want)
	}
}

func TestAggregatorSnapshotRoundTrip(t *testing.T) {
	d, ref := ssyncSpec(t, 5, 3)
	meta, err := d.Meta()
	if err != nil {
		t.Fatal(err)
	}
	agg := sweep.NewAggregator(meta, false)
	// Absorb the first 40 patterns, snapshot at the boundary, ship the
	// snapshot through JSON (as a checkpoint does), restore, finish.
	cut := 40 * d.Seeds
	for _, cr := range ref.Cases[:cut] {
		agg.Absorb(cr)
	}
	snap, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back sweep.AggState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	restored, err := sweep.RestoreAggregator(&back)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Absorbed() != cut {
		t.Fatalf("restored aggregator absorbed %d, want %d", restored.Absorbed(), cut)
	}
	for _, cr := range ref.Cases[cut:] {
		restored.Absorb(cr)
	}
	if got, want := reportJSON(t, restored.Finish()), reportJSON(t, ref); got != want {
		t.Fatalf("snapshot/restore report differs from engine report:\n%s\nvs\n%s", got, want)
	}
}

func TestAggregatorSnapshotMidPatternFails(t *testing.T) {
	d, ref := ssyncSpec(t, 5, 3)
	meta, err := d.Meta()
	if err != nil {
		t.Fatal(err)
	}
	agg := sweep.NewAggregator(meta, false)
	for _, cr := range ref.Cases[:4] { // 4 is not a multiple of 3 seeds
		agg.Absorb(cr)
	}
	if _, err := agg.Snapshot(); err == nil {
		t.Fatal("Snapshot mid-pattern succeeded; want error")
	}
}

func TestRestoreAggregatorRejectsInconsistentState(t *testing.T) {
	d, ref := ssyncSpec(t, 5, 3)
	meta, err := d.Meta()
	if err != nil {
		t.Fatal(err)
	}
	agg := sweep.NewAggregator(meta, false)
	for _, cr := range ref.Cases[:3*d.Seeds] {
		agg.Absorb(cr)
	}
	snap, err := agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := *snap
	bad.Absorbed = 7 // not a multiple of Schedules
	if _, err := sweep.RestoreAggregator(&bad); err == nil {
		t.Fatal("RestoreAggregator accepted a torn absorbed count")
	}
	bad = *snap
	bad.Robust = bad.Robust[:1]
	if _, err := sweep.RestoreAggregator(&bad); err == nil {
		t.Fatal("RestoreAggregator accepted a truncated robustness histogram")
	}
}

// TestAggregatorAdversaryCases recomputes an adversary sweep's report
// from its cases by hand: the verdict partition, the method counts, the
// deepest witness, and rounds/moves aggregates over the witness replays
// of defeats only. Such an aggregation refuses to snapshot, because the
// checkpoint state has no verdict fields.
func TestAggregatorAdversaryCases(t *testing.T) {
	rep, err := sweep.Run(context.Background(), sweep.Spec{N: 6, Adversary: &adversary.Options{}, KeepCases: true})
	if err != nil {
		t.Fatal(err)
	}
	var defeats, safe, depth, sumRounds, maxRounds, sumMoves, maxMoves int
	for _, cr := range rep.Cases {
		if cr.Verdict.Kind == adversary.Safe {
			safe++
			continue
		}
		defeats++
		depth = max(depth, cr.Verdict.Depth)
		sumRounds += cr.Rounds
		sumMoves += cr.Moves
		maxRounds = max(maxRounds, cr.Rounds)
		maxMoves = max(maxMoves, cr.Moves)
	}
	if rep.Defeatable != defeats || rep.SafePatterns != safe || rep.ByMethod["solver"] != defeats+safe ||
		rep.MaxWitnessDepth != depth || rep.MaxRounds != maxRounds || rep.MaxMoves != maxMoves ||
		rep.MeanRounds != float64(sumRounds)/float64(defeats) || rep.MeanMoves != float64(sumMoves)/float64(defeats) {
		t.Fatalf("adversary report %s does not match its cases: %d defeats, %d safe, depth %d, rounds max %d sum %d, moves max %d sum %d",
			rep, defeats, safe, depth, maxRounds, sumRounds, maxMoves, sumMoves)
	}
	if rep.Robust[0] != defeats || rep.Robust[1] != safe {
		t.Fatalf("robustness %v, want [%d %d]", rep.Robust, defeats, safe)
	}

	agg := sweep.NewAggregator(sweep.Meta{Scheduler: "adversary", Robots: 6, Patterns: 1}, false)
	agg.Absorb(rep.Cases[0])
	if _, err := agg.Snapshot(); err == nil {
		t.Fatal("an adversary aggregation snapshotted without its verdict partition")
	}
}
