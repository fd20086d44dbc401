package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
)

func TestRunAlreadyGathered(t *testing.T) {
	res := Run(core.Gatherer{}, config.Hexagon(grid.Origin), Options{})
	if res.Status != Gathered {
		t.Fatalf("status = %v, want gathered", res.Status)
	}
	if res.Rounds != 0 || res.Moves != 0 {
		t.Errorf("hexagon run took %d rounds, %d moves; want 0, 0", res.Rounds, res.Moves)
	}
}

func TestRunGathersLine(t *testing.T) {
	for _, d := range []grid.Direction{grid.E, grid.NE, grid.SE} {
		res := Run(core.Gatherer{}, config.Line(grid.Origin, d, 7), Options{DetectCycles: true})
		if res.Status != Gathered {
			t.Errorf("%v-line: status %v, want gathered", d, res.Status)
		}
		if !res.Final.Gathered() {
			t.Errorf("%v-line: final configuration not a hexagon: %v", d, res.Final)
		}
	}
}

func TestRunIdleStalls(t *testing.T) {
	res := Run(core.Idle{}, config.Line(grid.Origin, grid.E, 7), Options{})
	if res.Status != Stalled {
		t.Fatalf("status = %v, want stalled", res.Status)
	}
}

func TestRunTraceRecordsEveryRound(t *testing.T) {
	res := Run(core.Gatherer{}, config.Line(grid.Origin, grid.E, 7), Options{RecordTrace: true})
	if len(res.Trace) != res.Rounds+1 {
		t.Fatalf("trace has %d entries for %d rounds", len(res.Trace), res.Rounds)
	}
	if !res.Trace[len(res.Trace)-1].Equal(res.Final) {
		t.Error("last trace entry is not the final configuration")
	}
	for i := 0; i+1 < len(res.Trace); i++ {
		if res.Trace[i].Equal(res.Trace[i+1]) {
			t.Errorf("rounds %d and %d identical — counted a no-op round", i, i+1)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	c := config.Line(grid.Origin, grid.NE, 7)
	a := Run(core.Gatherer{}, c, Options{RecordTrace: true})
	b := Run(core.Gatherer{}, c, Options{RecordTrace: true})
	if a.Rounds != b.Rounds || a.Moves != b.Moves || a.Status != b.Status {
		t.Fatal("two identical runs disagreed")
	}
	for i := range a.Trace {
		if !a.Trace[i].Equal(b.Trace[i]) {
			t.Fatalf("traces diverge at round %d", i)
		}
	}
}

func TestRunTranslationEquivariant(t *testing.T) {
	c := config.Line(grid.Origin, grid.E, 7)
	off := grid.Coord{Q: -13, R: 8}
	a := Run(core.Gatherer{}, c, Options{})
	b := Run(core.Gatherer{}, c.Translate(off), Options{})
	if a.Rounds != b.Rounds || a.Moves != b.Moves {
		t.Fatal("translation changed the run")
	}
	if !a.Final.Translate(off).Equal(b.Final) {
		t.Fatalf("final configurations not translates:\n%v\n%v", a.Final, b.Final)
	}
}

func TestRoundLimit(t *testing.T) {
	// The greedy baseline livelocks on some configurations; without cycle
	// detection the run must end at the round budget, not hang.
	res := Run(core.GreedyEast{}, config.Line(grid.Origin, grid.NE, 7), Options{MaxRounds: 5})
	if res.Status != RoundLimit && res.Status != Gathered && res.Status != Stalled && res.Status != Collision {
		t.Fatalf("unexpected status %v", res.Status)
	}
	if res.Rounds > 5 {
		t.Fatalf("exceeded round budget: %d", res.Rounds)
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		Gathered: "gathered", Stalled: "stalled", Livelock: "livelock",
		Collision: "collision", Disconnected: "disconnected", RoundLimit: "round-limit",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if Swap.String() != "swap" || OntoStationary.String() != "onto-stationary" || Merge.String() != "merge" {
		t.Error("collision kind names wrong")
	}
}

func TestStepCountsMovers(t *testing.T) {
	c := config.Line(grid.Origin, grid.E, 7)
	next, moved, coll := Step(core.Gatherer{}, c)
	if coll != nil {
		t.Fatalf("collision on first step: %+v", coll)
	}
	if moved == 0 {
		t.Fatal("nobody moved from the line")
	}
	if next.Len() != 7 {
		t.Fatalf("robot count changed: %d", next.Len())
	}
	if !next.Connected() {
		t.Fatal("first step disconnected the line")
	}
}

func BenchmarkStep(b *testing.B) {
	c := config.Line(grid.Origin, grid.E, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Step(core.Gatherer{}, c)
	}
}

func BenchmarkRunLine(b *testing.B) {
	c := config.Line(grid.Origin, grid.E, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Run(core.Gatherer{}, c, Options{}).Status != Gathered {
			b.Fatal("run failed")
		}
	}
}

// TestDefaultGoalGeneralizes pins the nil-Goal default for n ≠ 7
// (config.GoalFor): a run that stops at the minimum-diameter n-robot
// configuration is gathered, one that stops short is stalled.
func TestDefaultGoalGeneralizes(t *testing.T) {
	// Three robots in a triangle: minimum diameter, so Idle is already
	// gathered; a 3-line (diameter 2) is stalled.
	triangle := config.New(grid.Origin, grid.Coord{Q: 1, R: 0}, grid.Coord{Q: 0, R: 1})
	if res := Run(core.Idle{}, triangle, Options{}); res.Status != Gathered {
		t.Errorf("idle triangle: %v, want gathered", res.Status)
	}
	if res := Run(core.Idle{}, config.Line(grid.Origin, grid.E, 3), Options{}); res.Status != Stalled {
		t.Errorf("idle 3-line: %v, want stalled", res.Status)
	}
	// ThreeGatherer needs no explicit Goal any more: the default agrees
	// with its triangle target.
	if res := Run(core.ThreeGatherer{}, config.Line(grid.Origin, grid.E, 3), Options{DetectCycles: true}); res.Status != Gathered {
		t.Errorf("three-gatherer 3-line: %v, want gathered", res.Status)
	}
	// A single robot is trivially gathered; an adjacent pair is the
	// 2-robot minimum diameter.
	if res := Run(core.Idle{}, config.New(grid.Origin), Options{}); res.Status != Gathered {
		t.Errorf("idle singleton: %v, want gathered", res.Status)
	}
	if res := Run(core.Idle{}, config.Line(grid.Origin, grid.E, 2), Options{}); res.Status != Gathered {
		t.Errorf("idle pair: %v, want gathered", res.Status)
	}
	// The paper's case is untouched: a stalled 7-robot non-hexagon stays
	// stalled, a hexagon gathered.
	if res := Run(core.Idle{}, config.Line(grid.Origin, grid.E, 7), Options{}); res.Status != Stalled {
		t.Errorf("idle 7-line: %v, want stalled", res.Status)
	}
}

// TestCycleSetPoolingMatchesFresh reruns a mix of gathering and failing
// runs with one pooled CycleSet and compares against fresh per-run
// sets: pooling must be invisible in every Result field, and the set
// must be Reset between runs (a stale entry would fake a livelock).
func TestCycleSetPoolingMatchesFresh(t *testing.T) {
	cases := []struct {
		alg core.Algorithm
		c   config.Config
	}{
		{core.Gatherer{}, config.Line(grid.Origin, grid.E, 7)},
		{core.Gatherer{}, config.MustFromASCII("o o\n o o\n  o o\n   o")},
		{core.GreedyEast{}, config.Line(grid.Origin, grid.NE, 7)},
		{core.Idle{}, config.Line(grid.Origin, grid.E, 5)},
		{core.Gatherer{}, config.Line(grid.Origin, grid.E, 7)}, // repeat: pool must not remember run 0
	}
	var pool config.PatternSet
	opts := Options{DetectCycles: true, StopOnDisconnect: true, MaxRounds: 500}
	for i, tc := range cases {
		fresh := Run(tc.alg, tc.c, opts)
		pooledOpts := opts
		pooledOpts.CycleSet = &pool
		pooled := Run(tc.alg, tc.c, pooledOpts)
		if fresh.Status != pooled.Status || fresh.Rounds != pooled.Rounds ||
			fresh.Moves != pooled.Moves || !fresh.Final.Equal(pooled.Final) {
			t.Fatalf("case %d: pooled %v/%d/%d diverged from fresh %v/%d/%d",
				i, pooled.Status, pooled.Rounds, pooled.Moves, fresh.Status, fresh.Rounds, fresh.Moves)
		}
	}
}
