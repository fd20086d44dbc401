package repro

// TestE20_N10Map pins experiment E20 — the full n = 10 FSYNC map, the
// wall the materializing enumeration could not break: all 362671
// connected 10-robot patterns (KnownCounts[10], cross-checked by
// enumerate's TestKnownCountsTwoTier) under the seven-robot algorithm
// and the generalized minimum-diameter goal. The space is served by
// the Redelmeier search — each pattern produced once as a packed key,
// decoded on visit — and swept through the shared outcome
// store, which again deduplicates the 362671 trajectories into one
// traversal of the configuration graph (~4 s wall in one process).
//
// The breakdown is the experiment's result, and it answers E15's open
// question: the stall explosion continues, and accelerates. Gathered
// falls from 57.0% of the n = 9 space to 26.0% here, while stalls —
// 145 patterns at n = 8, 23199 at n = 9 — reach 213492, a majority
// (58.9%) of the whole space. The paper's goal predicate generalizes;
// its progress argument has now inverted from majority-works to
// majority-stalls in two sizes.
//
// The sweep takes a few seconds, so it skips under -short but runs in
// routine full CI; BenchmarkE20_N10Sweep tracks its cost in the bench
// baseline.

import (
	"context"
	"testing"

	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func TestE20_N10Map(t *testing.T) {
	if testing.Short() {
		t.Skip("full n = 10 sweep (a few seconds); skipped under -short")
	}
	store := memo.NewOutcomes()
	rep, err := sweep.Run(context.Background(), sweep.Spec{N: 10, OutcomeMemo: store})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != enumerate.KnownCounts[10] {
		t.Fatalf("swept %d patterns, want %d", rep.Total, enumerate.KnownCounts[10])
	}
	want := map[sim.Status]int{
		sim.Gathered:     94158,
		sim.Stalled:      213492,
		sim.Livelock:     42434,
		sim.Collision:    8810,
		sim.Disconnected: 3777,
		sim.RoundLimit:   0,
	}
	for s, n := range want {
		if got := rep.ByStatus[s]; got != n {
			t.Errorf("status %v: %d patterns, want %d", s, got, n)
		}
	}
	// Round/move extremes over the 94158 gathered runs: still shallow
	// (≤ 26 rounds, vs 21 at n = 9), which is why the memoized
	// traversal stays a few seconds even at 4.7× the n = 9 space.
	if rep.MaxRounds != 26 {
		t.Errorf("max rounds %d, want 26", rep.MaxRounds)
	}
	if rep.MaxMoves != 70 {
		t.Errorf("max moves %d, want 70", rep.MaxMoves)
	}
	// As at n = 9, every configuration-graph state created is one of
	// the initial patterns — FSYNC trajectories never leave the
	// connected n-pattern space before terminating — so Created equals
	// the space size exactly; hits are scheduling-dependent, demand
	// only that merging happened.
	if rep.Memo.Created != 362671 {
		t.Errorf("outcome states created %d, want 362671", rep.Memo.Created)
	}
	if rep.Memo.Hits == 0 {
		t.Error("memoized sweep recorded zero hits — trajectories never merged")
	}
}
