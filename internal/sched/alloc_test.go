package sched

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/sim"
)

// TestRunAllocs pins the allocations of an unmemoized run over the
// whole n = 8 space with a pooled cycle set, the way a sweep worker
// runs it. With shared activations (FSYNC, RoundRobin, one reused
// RandomSubset replaying its record) a run allocates its result's
// Final, the cycle set's growth and little else; round-robin adds the
// per-phase cycle sets of its period. Before the loop moved to sorted
// slices these were 101, 553 and 197 allocations per run.
func TestRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the n = 8 space three times")
	}
	pats := enumerate.Connected(8)
	var cycles config.PatternSet
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true, CycleSet: &cycles}
	for _, tc := range []struct {
		s   Scheduler
		max float64
	}{
		{FSYNC{}, 8},
		{NewRandomSubset(1), 8},
		{RoundRobin{}, 20},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			for _, c := range pats {
				Run(core.Gatherer{}, c, tc.s, opts)
			}
		}) / float64(len(pats))
		t.Logf("%s: %.2f allocs per run", tc.s.Name(), allocs)
		if allocs > tc.max {
			t.Errorf("%s: %.2f allocs per run, want at most %v", tc.s.Name(), allocs, tc.max)
		}
	}
}
