package sched

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/sim"
)

func TestFSYNCSelectsEveryone(t *testing.T) {
	sel := FSYNC{}.Select(7, 3)
	if len(sel) != 7 {
		t.Fatalf("FSYNC selected %d robots", len(sel))
	}
	for i, v := range sel {
		if v != i {
			t.Fatalf("FSYNC selection out of order: %v", sel)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	rr := RoundRobin{}
	for round := 0; round < 14; round++ {
		sel := rr.Select(7, round)
		if len(sel) != 1 || sel[0] != round%7 {
			t.Fatalf("round %d: selection %v", round, sel)
		}
	}
}

func TestRandomSubsetNonEmptyAndSeeded(t *testing.T) {
	a := NewRandomSubset(42)
	b := NewRandomSubset(42)
	for round := 0; round < 50; round++ {
		sa := a.Select(7, round)
		sb := b.Select(7, round)
		if len(sa) == 0 {
			t.Fatal("empty activation set")
		}
		if len(sa) != len(sb) {
			t.Fatal("same seed produced different schedules")
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatal("same seed produced different schedules")
			}
		}
	}
}

func TestNewRandomSubsetFromExplicitSource(t *testing.T) {
	a := NewRandomSubsetFrom(rand.New(rand.NewSource(42)))
	b := NewRandomSubset(42)
	for round := 0; round < 50; round++ {
		sa, sb := a.Select(7, round), b.Select(7, round)
		if len(sa) != len(sb) {
			t.Fatal("explicit source diverged from seed convenience")
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatal("explicit source diverged from seed convenience")
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil source accepted")
		}
	}()
	NewRandomSubsetFrom(nil)
}

func TestRunFSYNCMatchesSim(t *testing.T) {
	for _, d := range []grid.Direction{grid.E, grid.NE, grid.SE} {
		c := config.Line(grid.Origin, d, 7)
		a := sim.Run(core.Gatherer{}, c, sim.Options{DetectCycles: true})
		b := Run(core.Gatherer{}, c, FSYNC{}, sim.Options{DetectCycles: true})
		if a.Status != b.Status || a.Rounds != b.Rounds || a.Moves != b.Moves {
			t.Fatalf("%v-line: sched.Run(FSYNC) diverged from sim.Run: %v/%d/%d vs %v/%d/%d",
				d, a.Status, a.Rounds, a.Moves, b.Status, b.Rounds, b.Moves)
		}
	}
}

func TestRunRoundRobinGathersLine(t *testing.T) {
	res := Run(core.Gatherer{}, config.Line(grid.Origin, grid.E, 7), RoundRobin{}, sim.Options{
		DetectCycles: true, StopOnDisconnect: true, MaxRounds: 5000,
	})
	if res.Status != sim.Gathered {
		t.Fatalf("round-robin on east line: %v", res.Status)
	}
}

func TestRunSSYNCGathersLine(t *testing.T) {
	res := Run(core.Gatherer{}, config.Line(grid.Origin, grid.NE, 7), NewRandomSubset(3), sim.Options{
		DetectCycles: true, StopOnDisconnect: true, MaxRounds: 5000,
	})
	if res.Status != sim.Gathered {
		t.Fatalf("ssync on NE line: %v", res.Status)
	}
}

func TestRunHexagonStableAllSchedulers(t *testing.T) {
	hex := config.Hexagon(grid.Origin)
	for _, s := range []Scheduler{FSYNC{}, RoundRobin{}, NewRandomSubset(9)} {
		res := Run(core.Gatherer{}, hex, s, sim.Options{MaxRounds: 100})
		if res.Status != sim.Gathered || res.Moves != 0 {
			t.Errorf("%s: hexagon not stable: %v, %d moves", s.Name(), res.Status, res.Moves)
		}
	}
}

func TestRunIdleStallsUnderRoundRobin(t *testing.T) {
	res := Run(core.Idle{}, config.Line(grid.Origin, grid.E, 7), RoundRobin{}, sim.Options{MaxRounds: 500})
	if res.Status != sim.Stalled {
		t.Fatalf("idle under round-robin: %v, want stalled", res.Status)
	}
}

// TestPeriodicDeclarations pins the deterministic schedulers' periods:
// the (pattern, round mod period) cycle-detection state is only sound
// if Select really repeats with that period.
func TestPeriodicDeclarations(t *testing.T) {
	for _, n := range []int{1, 3, 7} {
		for _, s := range []Periodic{FSYNC{}, RoundRobin{}} {
			p := s.Period(n)
			if p < 1 {
				t.Fatalf("%s: period %d", s.Name(), p)
			}
			for round := 0; round < 3*p; round++ {
				a, b := s.Select(n, round), s.Select(n, round+p)
				if len(a) != len(b) {
					t.Fatalf("%s n=%d: round %d selection differs across one period", s.Name(), n, round)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s n=%d: round %d selection differs across one period", s.Name(), n, round)
					}
				}
			}
		}
	}
}

// TestRoundRobinLivelocksAreDetected: RoundRobin declares period n, so
// its deterministic partial-activation defeats must surface as
// Livelock — detected within a few rotations — and never as
// RoundLimit. Before the (config, round mod period) cycle keying, the
// full n = 6 CENT sweep burned its whole round budget on every defeat.
func TestRoundRobinLivelocksAreDetected(t *testing.T) {
	var cycles config.PatternSet
	livelocks, maxRounds := 0, 0
	for _, c := range enumerate.Connected(6) {
		res := Run(core.Gatherer{}, c, RoundRobin{}, sim.Options{
			MaxRounds: 2000, DetectCycles: true, StopOnDisconnect: true, CycleSet: &cycles,
		})
		if res.Status == sim.RoundLimit {
			t.Fatalf("%s: round-limit under a periodic scheduler — cycle detection failed", c.Key())
		}
		if res.Status == sim.Livelock {
			livelocks++
			if res.Rounds > maxRounds {
				maxRounds = res.Rounds
			}
		}
	}
	if livelocks == 0 {
		t.Fatal("no CENT livelock at n=6; the detection path was never exercised")
	}
	// Detection is bounded by the distinct (pattern, phase) pairs of
	// the trajectory — tens of moving rounds, not the 2000 budget.
	if maxRounds >= 2000 {
		t.Fatalf("livelock detected only at the round budget (%d rounds)", maxRounds)
	}
}

func BenchmarkRunRoundRobin(b *testing.B) {
	c := config.Line(grid.Origin, grid.E, 7)
	for i := 0; i < b.N; i++ {
		Run(core.Gatherer{}, c, RoundRobin{}, sim.Options{MaxRounds: 5000})
	}
}

// TestRandomSubsetReplay pins the round-indexed contract: a value
// records its draws, so asking for round 40 and then round 3 returns
// what a fresh value's sequential draws give for those rounds, and any
// later request replays the record.
func TestRandomSubsetReplay(t *testing.T) {
	fresh := NewRandomSubset(5)
	var want [][]int
	for round := 0; round <= 40; round++ {
		want = append(want, append([]int(nil), fresh.Select(7, round)...))
	}
	s := NewRandomSubset(5)
	if got := s.Select(7, 40); !slices.Equal(got, want[40]) {
		t.Fatalf("round 40: %v, want %v", got, want[40])
	}
	if got := s.Select(7, 3); !slices.Equal(got, want[3]) {
		t.Fatalf("round 3 after 40: %v, want %v", got, want[3])
	}
	for round := 40; round >= 0; round-- {
		if got := s.Select(7, round); !slices.Equal(got, want[round]) {
			t.Fatalf("replayed round %d: %v, want %v", round, got, want[round])
		}
	}
	// The view is read-only and capacity-clipped: appending to it must
	// not write into the next round's record.
	_ = append(s.Select(7, 3), 99)
	if got := s.Select(7, 4); !slices.Equal(got, want[4]) {
		t.Fatalf("round 4 after an append to round 3: %v, want %v", got, want[4])
	}
}

// TestRandomSubsetReseedsOnNewN: a seeded value asked for another
// robot count starts that count's schedule from its seed, exactly as a
// fresh NewRandomSubset(seed) would, and going back does the same.
func TestRandomSubsetReseedsOnNewN(t *testing.T) {
	s := NewRandomSubset(11)
	for round := 0; round < 20; round++ {
		s.Select(7, round)
	}
	for _, n := range []int{5, 7} {
		fresh := NewRandomSubset(11)
		for round := 0; round < 30; round++ {
			if got, want := s.Select(n, round), fresh.Select(n, round); !slices.Equal(got, want) {
				t.Fatalf("n=%d round %d after a change of n: %v, want %v", n, round, got, want)
			}
		}
	}
}

// TestRandomSubsetFromPanicsOnSecondN: a value built on a caller's
// source cannot rewind it, so a second robot count is refused.
func TestRandomSubsetFromPanicsOnSecondN(t *testing.T) {
	s := NewRandomSubsetFrom(rand.New(rand.NewSource(3)))
	s.Select(7, 0)
	s.Select(7, 5) // same n: fine
	defer func() {
		if recover() == nil {
			t.Fatal("second robot count accepted")
		}
	}()
	s.Select(6, 0)
}

// TestSharedActivationsAreViews: FSYNC and RoundRobin hand out views of
// one shared identity array, clipped so an append cannot write into it.
func TestSharedActivationsAreViews(t *testing.T) {
	a := FSYNC{}.Select(7, 0)
	if b := (FSYNC{}).Select(7, 9); cap(a) != 7 || &a[0] != &b[0] {
		t.Fatalf("FSYNC selection is not a clipped shared view (cap %d)", cap(a))
	}
	_ = append(a, 99)
	if got := (RoundRobin{}).Select(8, 7); len(got) != 1 || got[0] != 7 || cap(got) != 1 {
		t.Fatalf("round-robin selection %v (cap %d)", got, cap(got))
	}
	if got := Everyone(100); len(got) != 100 || got[99] != 99 {
		t.Fatal("Everyone past the shared array")
	}
}
