package core

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/grid"
	"repro/internal/vision"
)

func look(c config.Config, pos grid.Coord) vision.View {
	return vision.Look(c, pos, 2)
}

func TestMoveBasics(t *testing.T) {
	if Stay.IsMove() {
		t.Error("Stay is a move")
	}
	for _, d := range grid.Directions {
		m := MoveIn(d)
		if !m.IsMove() || m.Direction() != d {
			t.Errorf("MoveIn(%v) broken", d)
		}
		if m.Apply(grid.Origin) != grid.Origin.Step(d) {
			t.Errorf("Apply(%v) wrong", d)
		}
		if m.String() != d.String() {
			t.Errorf("String(%v) = %q", d, m.String())
		}
	}
	if Stay.Apply(grid.Coord{Q: 2, R: 3}) != (grid.Coord{Q: 2, R: 3}) {
		t.Error("Stay.Apply moved the robot")
	}
	if Stay.String() != "stay" {
		t.Errorf("Stay.String() = %q", Stay.String())
	}
}

func TestMovePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Stay.Direction() did not panic")
		}
	}()
	Stay.Direction()
}

// TestBaseNodeUniqueMax reproduces Fig. 49 (a): the robot node with the
// strictly largest x-element is the base.
func TestBaseNodeUniqueMax(t *testing.T) {
	// Robot at origin; robots at E (label (2,0)) and NE-NE (label (2,2))
	// tie at x=2 — no base. Adding EE (label (4,0)) gives a unique base.
	tie := config.New(grid.Origin, grid.Origin.Step(grid.E), grid.Coord{Q: 0, R: 2})
	if _, ok := BaseNode(look(tie, grid.Origin)); ok {
		t.Error("tied maxima must yield no base (Fig. 49 (b))")
	}
	withMax := config.New(grid.Origin, grid.Origin.Step(grid.E), grid.Coord{Q: 0, R: 2}, grid.Coord{Q: 2, R: 0})
	base, ok := BaseNode(look(withMax, grid.Origin))
	if !ok || base != grid.L(4, 0) {
		t.Errorf("base = %v, %v; want (4,0)", base, ok)
	}
}

// TestBaseNodeSelf: an easternmost robot is its own base (label (0,0)).
func TestBaseNodeSelf(t *testing.T) {
	c := config.Line(grid.Origin, grid.W, 3) // robots at origin, W, WW
	base, ok := BaseNode(look(c, grid.Origin))
	if !ok || base != grid.L(0, 0) {
		t.Errorf("base = %v, %v; want self (0,0)", base, ok)
	}
}

// TestBaseNodeEmptyException reproduces the paper's exception: (4,0) empty
// with robots at (3,1) and (3,-1) adopts the empty node (4,0) as base.
func TestBaseNodeEmptyException(t *testing.T) {
	c := config.New(
		grid.Origin,
		grid.Coord{Q: 1, R: 1},  // label (3,1)
		grid.Coord{Q: 2, R: -1}, // label (3,-1)
	)
	base, ok := BaseNode(look(c, grid.Origin))
	if !ok || base != grid.L(4, 0) {
		t.Errorf("base = %v, %v; want adopted empty (4,0)", base, ok)
	}
	// With (4,0) occupied the exception is moot: the robot there is base.
	c2 := config.New(grid.Origin, grid.Coord{Q: 1, R: 1}, grid.Coord{Q: 2, R: -1}, grid.Coord{Q: 2, R: 0})
	base, ok = BaseNode(look(c2, grid.Origin))
	if !ok || base != grid.L(4, 0) {
		t.Errorf("base = %v, %v; want occupied (4,0)", base, ok)
	}
}

func TestBaseNodePanicsOnRange1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BaseNode accepted a range-1 view")
		}
	}()
	BaseNode(vision.Look(config.Hexagon(grid.Origin), grid.Origin, 1))
}

// TestBecomeBaseRule reproduces Fig. 49 (c) / pseudocode lines 1–3: robots
// at (1,1) and (1,-1) with (2,0) empty make the observer move east to
// become the base.
func TestBecomeBaseRule(t *testing.T) {
	c := config.New(
		grid.Origin,
		grid.Coord{Q: 0, R: 1},  // label (1,1)
		grid.Coord{Q: 1, R: -1}, // label (1,-1)
	)
	m := Gatherer{}.Compute(look(c, grid.Origin))
	if m != MoveIn(grid.E) {
		t.Errorf("move = %v, want E (become the base)", m)
	}
}

// TestHexagonStable: in the gathered configuration every robot stays, for
// every variant of the algorithm.
func TestHexagonStable(t *testing.T) {
	hex := config.Hexagon(grid.Coord{Q: 3, R: -1})
	for _, variant := range []Variant{VariantFull, VariantNoTable, VariantNoReconstruction, VariantPaper} {
		alg := Gatherer{Variant: variant}
		for _, pos := range hex.Nodes() {
			if m := alg.Compute(look(hex, pos)); m != Stay {
				t.Errorf("variant %v: robot %v moves %v in the hexagon", variant, pos, m)
			}
		}
	}
}

// TestComputeIsViewFunction: equal views must produce equal moves
// (obliviousness) — spot-checked across translated configurations.
func TestComputeIsViewFunction(t *testing.T) {
	c := config.Line(grid.Origin, grid.E, 7)
	off := grid.Coord{Q: 5, R: -9}
	d := c.Translate(off)
	alg := Gatherer{}
	for _, pos := range c.Nodes() {
		m1 := alg.Compute(look(c, pos))
		m2 := alg.Compute(look(d, pos.Add(off)))
		if m1 != m2 {
			t.Fatalf("translated robot decided differently: %v vs %v", m1, m2)
		}
	}
}

// TestSafeMoveBlocksOrphaning: a robot must not abandon a neighbor that
// has no other support.
func TestSafeMoveBlocksOrphaning(t *testing.T) {
	// Robot at origin with one neighbor W; moving E would orphan it.
	c := config.New(grid.Origin, grid.Origin.Step(grid.W), grid.Origin.Step(grid.E).Step(grid.E))
	v := look(c, grid.Origin)
	if SafeMove(v, grid.E) {
		t.Error("SafeMove allowed orphaning the W neighbor")
	}
}

// TestSafeMoveAllowsSupportedDeparture: moving away is fine when the
// abandoned neighbor keeps support reachable from the destination.
func TestSafeMoveAllowsSupportedDeparture(t *testing.T) {
	// Chain W-origin-E; moving NE keeps both neighbors connected through
	// the destination? The W neighbor connects only through the origin —
	// verify the guard blocks NE but allows nothing that splits.
	c := config.New(grid.Origin, grid.Origin.Step(grid.W), grid.Origin.Step(grid.E))
	v := look(c, grid.Origin)
	if SafeMove(v, grid.NE) {
		t.Error("SafeMove allowed splitting a 3-chain")
	}
	// Triangle: origin, E, NE — moving E is onto a robot (unsafe); moving
	// SE keeps both neighbors adjacent to each other and to the mover.
	tri := config.New(grid.Origin, grid.Origin.Step(grid.E), grid.Origin.Step(grid.NE))
	v = look(tri, grid.Origin)
	if !SafeMove(v, grid.SE) {
		t.Error("SafeMove blocked a safe slide around a triangle")
	}
}

// TestSafeMoveRingCase: a robot on a 7-ring may step inside even though
// its view splits — the direct-neighbor criterion must not over-block.
func TestSafeMoveRingCase(t *testing.T) {
	// The ring configuration from the exhaustive run that exposed the
	// over-conservative guard.
	ring, err := config.ParseKey("0,0;0,2;1,-1;1,2;2,-1;2,0;2,1")
	if err != nil {
		t.Fatal(err)
	}
	v := look(ring, grid.Origin)
	if !SafeMove(v, grid.E) {
		t.Error("SafeMove blocked the ring interior fill")
	}
}

// TestGathererNeverCollidesOneStep: property — from any connected
// configuration, one synchronous step of the full algorithm is legal.
// (The exhaustive test covers whole runs; this pins the single-step
// contract at the unit level for a sample of shapes.)
func TestGathererNeverCollidesOneStep(t *testing.T) {
	shapes := []config.Config{
		config.Line(grid.Origin, grid.E, 7),
		config.Line(grid.Origin, grid.NE, 7),
		config.Line(grid.Origin, grid.SE, 7),
		config.Hexagon(grid.Origin),
		config.MustFromASCII("o o o o\n o . o\n  . o"),
		config.MustFromASCII("o\n o\no\n o\no\n o\no"),
	}
	for _, c := range shapes {
		robots := c.Nodes()
		if len(robots) != 7 {
			t.Fatalf("bad fixture %v", c)
		}
		targets := make([]grid.Coord, len(robots))
		moving := make([]bool, len(robots))
		for i, pos := range robots {
			m := Gatherer{}.Compute(look(c, pos))
			targets[i] = m.Apply(pos)
			moving[i] = m.IsMove()
		}
		// No duplicate targets and no swaps.
		seen := map[grid.Coord]bool{}
		for _, tg := range targets {
			if seen[tg] {
				t.Errorf("duplicate target in %v", c)
			}
			seen[tg] = true
		}
		if !config.New(targets...).Connected() {
			t.Errorf("one step disconnected %v", c)
		}
	}
}

// TestVariantNames covers the ablation naming used in reports.
func TestVariantNames(t *testing.T) {
	if (Gatherer{}).Name() != "shibata-range2-full" {
		t.Errorf("name = %q", (Gatherer{}).Name())
	}
	if (Gatherer{Variant: VariantPaper}).Name() != "shibata-range2-paper" {
		t.Errorf("paper variant name = %q", Gatherer{Variant: VariantPaper}.Name())
	}
	if Variant(99).String() == "" {
		t.Error("unknown variant must still render")
	}
}

// TestOverrideIndexMatchesTable: every generated override is found
// through the packed-view index with the same move, for the view Look
// builds from the key's pattern, and the index holds nothing else.
func TestOverrideIndexMatchesTable(t *testing.T) {
	if len(overrideIndex) != len(generatedOverrides) {
		t.Fatalf("index has %d entries, table %d", len(overrideIndex), len(generatedOverrides))
	}
	for key, want := range generatedOverrides {
		c, err := config.ParseKey(strings.TrimPrefix(key, "r2:"))
		if err != nil {
			t.Fatalf("override key %q: %v", key, err)
		}
		v := vision.Look(c, grid.Origin, 2)
		if v.Key() != key {
			t.Fatalf("Look over %q keys as %q", key, v.Key())
		}
		if got, ok := (Gatherer{}).override(v); !ok || got != want {
			t.Errorf("override %q: index gives %v,%v, table %v", key, got, ok, want)
		}
	}
}

// TestGeneratedTableWellFormed: every override names a view key in
// canonical form and a decision the safety guard accepts on that view.
func TestGeneratedTableWellFormed(t *testing.T) {
	if len(generatedOverrides) == 0 {
		t.Fatal("generated override table is empty")
	}
	for key, m := range generatedOverrides {
		if len(key) < 3 || key[:3] != "r2:" {
			t.Errorf("override key %q is not a range-2 view key", key)
		}
		if !m.IsMove() {
			t.Errorf("override %q maps to Stay — synthesized rules always move", key)
		}
	}
}

func TestIdleAndGreedyInterfaces(t *testing.T) {
	if (Idle{}).VisibilityRange() != 2 || (Idle{Range: 1}).VisibilityRange() != 1 {
		t.Error("Idle visibility range wrong")
	}
	if (GreedyEast{}).VisibilityRange() != 2 {
		t.Error("GreedyEast visibility range wrong")
	}
	hex := config.Hexagon(grid.Origin)
	if (Idle{}).Compute(look(hex, grid.Origin)) != Stay {
		t.Error("Idle moved")
	}
}

func BenchmarkCompute(b *testing.B) {
	c := config.Line(grid.Origin, grid.E, 7)
	views := make([]vision.View, 0, 7)
	for _, pos := range c.Nodes() {
		views = append(views, look(c, pos))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range views {
			Gatherer{}.Compute(v)
		}
	}
}

func BenchmarkBaseNode(b *testing.B) {
	v := look(config.Hexagon(grid.Origin), grid.Origin.Step(grid.W))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BaseNode(v)
	}
}
