package sched

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/sim"
)

// TestRunAllocs pins the allocations of a run over the whole n = 8
// space with a pooled cycle set and the algorithm boxed once, the way
// a sweep worker runs it.
//
// Unmemoized, with shared activations (FSYNC, RoundRobin, one reused
// RandomSubset replaying its record), a run allocates its result's
// Final, the cycle set's growth and little else; round-robin keys its
// (pattern, phase) states into the same pooled set. Counted with the
// algorithm boxed at every call (one allocation more each), these were
// 101, 553 and 197 before the loop moved to sorted slices, and
// round-robin's per-phase cycle sets kept it at 12.8 after.
//
// Memoized FSYNC goes through the same loop from sim.Run and from
// sched.Run(FSYNC{}): about 1 allocation per run on a cold store (the
// published path's Configs, amortized) and none on a warm one, where
// the initial state's probe splices the whole run with the walk and
// the round scratch on the stack and no Config built. When sched.Run
// had a loop of its own, a heap walk and an eager copy of the initial
// configuration cost it one more allocation per run, cold and warm.
func TestRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the n = 8 space seven times")
	}
	pats := enumerate.Connected(8)
	// Box the algorithm once, as a sweep worker does: converting a
	// core.Gatherer to core.Algorithm at every call allocates.
	var alg core.Algorithm = core.Gatherer{}
	var cycles config.PatternSet
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true, CycleSet: &cycles}
	for _, tc := range []struct {
		s   Scheduler
		max float64
	}{
		{FSYNC{}, 8},
		{NewRandomSubset(1), 8},
		{RoundRobin{}, 8},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			for _, c := range pats {
				Run(alg, c, tc.s, opts)
			}
		}) / float64(len(pats))
		t.Logf("%s: %.2f allocs per run", tc.s.Name(), allocs)
		if allocs > tc.max {
			t.Errorf("%s: %.2f allocs per run, want at most %v", tc.s.Name(), allocs, tc.max)
		}
	}

	for _, entry := range []struct {
		name string
		run  func(config.Config, sim.Options) sim.Result
	}{
		{"sim.Run", func(c config.Config, o sim.Options) sim.Result { return sim.Run(alg, c, o) }},
		{"sched.Run(FSYNC)", func(c config.Config, o sim.Options) sim.Result { return Run(alg, c, FSYNC{}, o) }},
	} {
		memoOpts := opts
		sweep := func() {
			for _, c := range pats {
				entry.run(c, memoOpts)
			}
		}
		// AllocsPerRun warms up with one call, so the cold pass builds
		// its own store (a constant few allocations over 16,689 runs).
		cold := testing.AllocsPerRun(1, func() {
			memoOpts.Outcomes = memo.NewOutcomes()
			sweep()
		}) / float64(len(pats))
		warm := testing.AllocsPerRun(1, sweep) / float64(len(pats))
		t.Logf("%s memoized: %.2f allocs per run cold, %.2f warm", entry.name, cold, warm)
		if cold > 1.25 || warm > 0.01 {
			t.Errorf("%s memoized: %.2f allocs per run cold, %.2f warm; want at most 1.25 and 0.01", entry.name, cold, warm)
		}
	}
}
