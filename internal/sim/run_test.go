package sim_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/oracle"
	"repro/internal/sim"
)

// TestFinalDoesNotAliasInitial runs a configuration that is a window
// into a caller's slab (the way enumerate materializes pattern lists)
// and ends in round 0: the Result's Final must be the run's own copy,
// or holding a Result would keep the whole slab alive.
func TestFinalDoesNotAliasInitial(t *testing.T) {
	slab := config.Line(grid.Origin, grid.E, 7).Nodes()
	initial := config.FromSortedNodes(slab)
	want := initial.Key()
	for _, opts := range []sim.Options{{}, {DetectCycles: true, StopOnDisconnect: true}} {
		res := sim.Run(core.Idle{}, initial, opts)
		if res.Status != sim.Stalled || res.Rounds != 0 {
			t.Fatalf("%+v: %v after %d rounds, want stalled after 0", opts, res.Status, res.Rounds)
		}
		slab[0].Q += 100
		if got := res.Final.Key(); got != want {
			t.Errorf("%+v: Final changed with the caller's slab: %s, want %s", opts, got, want)
		}
		slab[0].Q -= 100
	}
}

// TestRunBeyondStackScratch checks runs whose robot count exceeds the
// stack-held round scratch against the oracle.
func TestRunBeyondStackScratch(t *testing.T) {
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true}
	for _, n := range []int{16, 17, 24} {
		initial := config.Line(grid.Origin, grid.E, n)
		got, want := sim.Run(core.Gatherer{}, initial, opts), oracle.Run(core.Gatherer{}, initial, opts)
		if got.Status != want.Status || got.Rounds != want.Rounds || got.Moves != want.Moves || got.Final.Key() != want.Final.Key() {
			t.Errorf("n = %d: %v/%d rounds/%d moves, final %s; oracle %v/%d/%d, final %s",
				n, got.Status, got.Rounds, got.Moves, got.Final.Key(), want.Status, want.Rounds, want.Moves, want.Final.Key())
		}
	}
}
