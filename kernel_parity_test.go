package repro

// The transition kernel (internal/step) is the one look→compute→move
// step of every execution layer. These tests pin it bit-for-bit over
// entire configuration spaces: every run of every pattern of the full
// n = 5 and n = 6 spaces must produce the identical Status/Rounds/Moves
// and final configuration under FSYNC as the independent map/string
// reference loop (internal/oracle); under round-robin, eight seeded
// SSYNC schedules and an undeclared-period activation as the oracle's
// activation loop; and under the SSYNC schedules whether the algorithm
// decides through its packed memo table or through the map-based
// Compute.

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/sim"
)

// assertSameRun fails unless the two results are observably identical.
func assertSameRun(t *testing.T, label string, c config.Config, p, l sim.Result) {
	t.Helper()
	if p.Status != l.Status || p.Rounds != l.Rounds || p.Moves != l.Moves || !p.Final.Equal(l.Final) {
		t.Fatalf("%s on %s: kernel %v/%d/%d reference %v/%d/%d",
			label, c.Key(), p.Status, p.Rounds, p.Moves, l.Status, l.Rounds, l.Moves)
	}
}

// TestKernelParityFullSmallSpaces sweeps the complete n = 5 (186
// patterns) and n = 6 (814) spaces through sim.Run against the oracle
// and through sched.Run with and without ComputePacked, under FSYNC and
// eight seeded random-subset SSYNC schedules, bit-for-bit.
func TestKernelParityFullSmallSpaces(t *testing.T) {
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true, MaxRounds: 5000}
	for _, n := range []int{5, 6} {
		for _, c := range enumerate.Connected(n) {
			// FSYNC through the simulator: the kernel loop vs the
			// independent map/string loop.
			assertSameRun(t, "sim/fsync", c,
				sim.Run(core.Gatherer{}, c, opts),
				oracle.Run(core.Gatherer{}, c, opts))
			// FSYNC through the scheduler: must also equal the simulator.
			ps := sched.Run(core.Gatherer{}, c, sched.FSYNC{}, opts)
			assertSameRun(t, "sched/fsync", c, ps, sim.Run(core.Gatherer{}, c, opts))
			assertSameRun(t, "sched/fsync-legacy", c, ps,
				sched.Run(legacyOnly{core.Gatherer{}}, c, sched.FSYNC{}, opts))
			// Eight seeded SSYNC schedules: the per-seed scheduler is
			// rebuilt for each path, so both replay the identical
			// activation sequence.
			for seed := int64(1); seed <= 8; seed++ {
				assertSameRun(t, "sched/ssync", c,
					sched.Run(core.Gatherer{}, c, sched.NewRandomSubset(seed), opts),
					sched.Run(legacyOnly{core.Gatherer{}}, c, sched.NewRandomSubset(seed), opts))
			}
		}
	}
}

// TestKernelParityFailureStatuses drives the baselines — the
// algorithms that actually collide, disconnect and stall — through the
// same comparisons on the full n = 5 space, so the parity above is not
// just 'everything gathers either way'.
func TestKernelParityFailureStatuses(t *testing.T) {
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true, MaxRounds: 500}
	statuses := map[sim.Status]int{}
	for _, alg := range []core.Algorithm{core.GreedyEast{}, core.Idle{}} {
		for _, c := range enumerate.Connected(5) {
			p := sim.Run(alg, c, opts)
			assertSameRun(t, alg.Name(), c, p, oracle.Run(alg, c, opts))
			statuses[p.Status]++
			for seed := int64(1); seed <= 4; seed++ {
				ps := sched.Run(alg, c, sched.NewRandomSubset(seed), opts)
				assertSameRun(t, alg.Name()+"/ssync", c, ps,
					sched.Run(legacyOnly{alg}, c, sched.NewRandomSubset(seed), opts))
				statuses[ps.Status]++
			}
		}
	}
	for _, s := range []sim.Status{sim.Collision, sim.Stalled} {
		if statuses[s] == 0 {
			t.Fatalf("no %v run in the parity sweep; it checked nothing for that status", s)
		}
	}
}

// alternating activates everyone on even rounds and one robot, in
// rotation, on odd rounds, without declaring a period: only its
// full-activation rounds may enter the cycle set.
type alternating struct{}

func (alternating) Name() string { return "alternating" }

func (alternating) Select(n, round int) []int {
	if round%2 == 0 {
		return sched.Everyone(n)
	}
	return []int{round / 2 % n}
}

// TestKernelParityPartialActivation sweeps the complete n = 5 and
// n = 6 spaces through sched.Run against the oracle's own activation
// loop (oracle.RunActivated: map views, string-keyed (pattern, phase)
// states) under the centralized round-robin scheduler, eight seeded
// SSYNC schedules and an undeclared-period activation, bit-for-bit.
// Those cover the idle-streak stall rule, the (pattern, round mod
// period) cycle rule and the full-activation-only cycle rule; the
// status tally checks that each run family reached the outcomes its
// rule decides.
func TestKernelParityPartialActivation(t *testing.T) {
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true, MaxRounds: 5000}
	alg := core.Gatherer{}
	tally := map[string]map[sim.Status]int{}
	check := func(family string, c config.Config, s sched.Scheduler) {
		res := sched.Run(alg, c, s, opts)
		assertSameRun(t, family, c, res, oracle.RunActivated(alg, c, s, opts))
		if tally[family] == nil {
			tally[family] = map[sim.Status]int{}
		}
		tally[family][res.Status]++
	}
	for _, n := range []int{5, 6} {
		for _, c := range enumerate.Connected(n) {
			check("round-robin", c, sched.RoundRobin{})
			for seed := int64(1); seed <= 8; seed++ {
				check("ssync", c, sched.NewRandomSubset(seed))
			}
			check("alternating", c, alternating{})
		}
	}
	// Round-robin never activates everyone, so its gathered runs were
	// all decided by an idle streak.
	for _, want := range []struct {
		family string
		status sim.Status
		rule   string
	}{
		{"round-robin", sim.Gathered, "the idle-streak stall rule"},
		{"round-robin", sim.Livelock, "the (pattern, round mod period) cycle rule"},
		{"alternating", sim.Livelock, "the full-activation-only cycle rule"},
	} {
		if tally[want.family][want.status] == 0 {
			t.Errorf("no %s run ended %v: %s went unchecked", want.family, want.status, want.rule)
		}
	}
}
