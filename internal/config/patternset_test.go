package config

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/grid"
)

// TestPatternSetOneIndex: patterns inside the Key128 envelope, past
// its node count and past its spread share one index, mixed sizes in
// one set, and Reset empties the set for reuse.
func TestPatternSetOneIndex(t *testing.T) {
	patterns := []Config{
		Hexagon(grid.Origin),
		Line(grid.Origin, grid.E, 9),
		Line(grid.Origin, grid.E, 20),       // past MaxKeyNodes
		New(grid.Origin, grid.Coord{Q: 16}), // spread 16
		New(grid.Origin, grid.Coord{Q: 1}),  // same size, another pattern
		{},                                  // the empty pattern
	}
	var s PatternSet
	for round := 0; round < 2; round++ {
		for i, c := range patterns {
			if !s.AddPhase(c.Nodes(), 0) {
				t.Fatalf("round %d: pattern %d reported as duplicate on first add", round, i)
			}
			if s.AddPhase(c.Translate(grid.Coord{Q: 3, R: -2}).Nodes(), 0) {
				t.Fatalf("round %d: translated pattern %d not recognized as duplicate", round, i)
			}
		}
		for i, c := range patterns {
			if s.AddPhase(c.Nodes(), 0) {
				t.Fatalf("round %d: pattern %d lost after later inserts", round, i)
			}
		}
		s.Reset()
	}
}

// TestPatternSetPhases: phased states are distinct from each other and
// from the bare pattern at every size, far outside Key128.WithPhase's
// range included.
func TestPatternSetPhases(t *testing.T) {
	for _, c := range []Config{
		Hexagon(grid.Origin),
		Line(grid.Origin, grid.E, 9),
		Line(grid.Origin, grid.E, 20),
	} {
		var s PatternSet
		phases := []int{0, 1, 2, 1<<phaseBits - 1, 1 << phaseBits, 1<<phaseBits + 1, -1, 1 << 40}
		for _, ph := range phases {
			if !s.AddPhase(c.Nodes(), ph) {
				t.Fatalf("%d nodes, phase %d: reported as duplicate on first add", c.Len(), ph)
			}
			if s.AddPhase(c.Translate(grid.Coord{Q: 3, R: -2}).Nodes(), ph) {
				t.Fatalf("%d nodes, phase %d: translate not recognized as duplicate", c.Len(), ph)
			}
		}
	}
}

// TestPatternSetMatchesStringKeys checks the index against a map of
// string keys over random states of mixed sizes, spreads and phases,
// enough per run to grow the slot table several times, with the set
// pooled across runs.
func TestPatternSetMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s PatternSet
	for run := 0; run < 20; run++ {
		s.Reset()
		want := map[string]bool{}
		for i := 0; i < 400; i++ {
			c := randomPattern(rng, 1+rng.Intn(4), 2+rng.Intn(12))
			ph := rng.Intn(3)
			k := strconv.Itoa(ph) + "@" + c.Key()
			d := grid.Coord{Q: rng.Intn(40) - 20, R: rng.Intn(40) - 20}
			if got := s.AddPhase(c.Translate(d).Nodes(), ph); got != !want[k] {
				t.Fatalf("run %d: AddPhase(%s) = %v, want %v", run, k, got, !want[k])
			}
			want[k] = true
		}
	}
}

// TestPatternSetConfirmsHashMatches: a slot whose hash matches is a
// member only if the stored nodes and phase do too, so a hash collision
// cannot report a false repeat.
func TestPatternSetConfirmsHashMatches(t *testing.T) {
	var s PatternSet
	line := Line(grid.Origin, grid.E, 3).Nodes()
	s.AddPhase(line, 1)
	e := &s.entries[0]
	other := Line(grid.Origin, grid.SE, 3).Nodes()
	if s.matches(e, e.hash, other, other[0], 1) {
		t.Fatal("another pattern under the same hash matched")
	}
	if s.matches(e, e.hash, line, line[0], 2) {
		t.Fatal("another phase under the same hash matched")
	}
	if s.matches(e, e.hash, line[:2], line[0], 1) {
		t.Fatal("a shorter pattern under the same hash matched")
	}
	if !s.matches(e, e.hash, line, line[0], 1) {
		t.Fatal("the stored state did not match itself")
	}
}
