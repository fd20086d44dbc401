package core_test

// The generated converged memo table (gatherer_memo_gen.go) claims to
// be exactly the view→move fixed point of the full n = 7 exhaustive
// sweep. This external test recomputes that fixed point from scratch —
// through a caller-owned Memo, so every decision comes from the
// map-based Compute, independent of the seeded process-wide tables — and
// requires the committed table to match entry for entry. A drift in
// the algorithm, the packing, or the sweep space fails here before it
// can silently ship a stale table.

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

func TestGeneratedMemoMatchesFixedPoint(t *testing.T) {
	alg := core.Gatherer{}
	memo := core.NewMemo()
	rep, err := sweep.Run(context.Background(), sweep.Spec{Alg: alg, Cache: memo})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AllGathered() {
		t.Fatalf("n=7 sweep did not fully gather: %s", rep)
	}
	fresh := memo.Snapshot(alg.Name())
	gen := core.GathererMemoSeed()
	if len(gen) == 0 {
		t.Fatal("generated memo table is empty; run go generate ./internal/core")
	}
	if len(fresh) != len(gen) {
		t.Fatalf("fresh fixed point has %d views, generated table %d", len(fresh), len(gen))
	}
	for k, want := range fresh {
		got, ok := gen[k]
		if !ok {
			t.Fatalf("view key %#x missing from generated table", k)
		}
		if got != want {
			t.Fatalf("view key %#x: generated move %v, fresh fixed point %v", k, got, want)
		}
	}
}
