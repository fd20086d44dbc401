package step_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/oracle"
	"repro/internal/step"
	"repro/internal/vision"
)

func TestMask(t *testing.T) {
	m := step.MaskOf([]int{0, 2, 5})
	if m.Count() != 3 {
		t.Fatalf("count %d, want 3", m.Count())
	}
	for i := 0; i < step.MaskBits; i++ {
		want := i == 0 || i == 2 || i == 5
		if m.Has(i) != want {
			t.Fatalf("Has(%d) = %v, want %v", i, m.Has(i), want)
		}
	}
	idx := m.Indices()
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 2 || idx[2] != 5 {
		t.Fatalf("indices %v, want [0 2 5]", idx)
	}
	if step.MaskOf(idx) != m {
		t.Fatal("MaskOf(Indices()) is not the identity")
	}
}

// TestKernelMoveAtMatchesBothPaths: for every robot of a pattern
// sample, the kernel's decision equals the map-based Compute over
// vision.Look — on the kernel over the packed memo table and on a
// kernel whose algorithm hides ComputePacked (decided through the
// unpacked view).
func TestKernelMoveAtMatchesBothPaths(t *testing.T) {
	type legacyOnly struct{ core.Algorithm }
	packed := step.New(core.Gatherer{})
	legacy := step.New(legacyOnly{core.Gatherer{}})
	for i, c := range enumerate.Connected(6) {
		if i%25 != 0 {
			continue
		}
		nodes := c.Nodes()
		for _, pos := range nodes {
			want := core.Gatherer{}.Compute(vision.Look(c, pos, 2))
			if got := packed.MoveAt(nodes, pos); got != want {
				t.Fatalf("packed MoveAt %v, want %v at %v of %s", got, want, pos, c.Key())
			}
			if got := legacy.MoveAt(nodes, pos); got != want {
				t.Fatalf("legacy MoveAt %v, want %v at %v of %s", got, want, pos, c.Key())
			}
		}
	}
}

// TestMovesMatchesMoveAt: the vector fill agrees with the per-robot
// entry point and counts movers consistently with MoverMask.
func TestMovesMatchesMoveAt(t *testing.T) {
	k := step.New(core.Gatherer{})
	for i, c := range enumerate.Connected(7) {
		if i%200 != 0 {
			continue
		}
		nodes := c.Nodes()
		moves := make([]core.Move, len(nodes))
		movers := k.Moves(nodes, moves)
		if movers != step.MoverMask(moves).Count() {
			t.Fatalf("mover count %d vs mask %d on %s", movers, step.MoverMask(moves).Count(), c.Key())
		}
		for j, pos := range nodes {
			if moves[j] != k.MoveAt(nodes, pos) {
				t.Fatalf("vector entry %d diverges from MoveAt on %s", j, c.Key())
			}
		}
	}
}

// TestDetectCollisionMatchesLegacy cross-checks the kernel's sorted
// binary-search detector against the map-based reference
// (oracle.DetectCollision) on every one-step move vector the greedy
// baseline produces over the n = 7 space — the algorithm that actually
// collides.
func TestDetectCollisionMatchesLegacy(t *testing.T) {
	k := step.New(core.GreedyEast{})
	checked, collided := 0, 0
	for i, c := range enumerate.Connected(7) {
		if i%19 != 0 {
			continue
		}
		nodes := c.Nodes()
		moves := make([]core.Move, len(nodes))
		k.Moves(nodes, moves)
		targets := make([]grid.Coord, len(nodes))
		moving := make([]bool, len(nodes))
		for j, pos := range nodes {
			targets[j] = moves[j].Apply(pos)
			moving[j] = moves[j].IsMove()
		}
		got := step.DetectCollision(nodes, targets, moving)
		want := oracle.DetectCollision(nodes, targets, moving)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: kernel %+v vs reference %+v", c.Key(), got, want)
		}
		if got != nil {
			collided++
			if *got != *want {
				t.Fatalf("%s: kernel %+v vs reference %+v", c.Key(), *got, *want)
			}
		}
		checked++
	}
	if checked == 0 || collided == 0 {
		t.Fatalf("checked %d vectors, %d collisions — the cross-check checked nothing", checked, collided)
	}
}

// TestApplyAgainstConfig: Apply's successor equals the configuration
// built the slow way, its terminal outcomes match the reference
// detectors, and full-mover activation reproduces the FSYNC step.
func TestApplyAgainstConfig(t *testing.T) {
	k := step.New(core.Gatherer{})
	for i, c := range enumerate.Connected(6) {
		if i%10 != 0 {
			continue
		}
		nodes := c.Nodes()
		moves := make([]core.Move, len(nodes))
		k.Moves(nodes, moves)
		movers := step.MoverMask(moves)
		if movers == 0 {
			continue
		}
		for sub := movers; sub != 0; sub = (sub - 1) & movers {
			next, outcome := step.Apply(nodes, moves, sub, nil)
			// Slow reference: build the target multiset directly.
			targets := make([]grid.Coord, len(nodes))
			moving := make([]bool, len(nodes))
			for j, pos := range nodes {
				if sub.Has(j) && moves[j].IsMove() {
					targets[j] = moves[j].Apply(pos)
					moving[j] = true
				} else {
					targets[j] = pos
				}
			}
			coll := oracle.DetectCollision(nodes, targets, moving)
			switch outcome {
			case step.Collided:
				if coll == nil {
					t.Fatalf("%s sub %b: Apply collided, reference did not", c.Key(), sub)
				}
			case step.Disconnected:
				if coll != nil {
					t.Fatalf("%s sub %b: Apply disconnected where reference collides", c.Key(), sub)
				}
				if config.New(targets...).Connected() {
					t.Fatalf("%s sub %b: Apply disconnected a connected successor", c.Key(), sub)
				}
			case step.OK:
				if coll != nil {
					t.Fatalf("%s sub %b: Apply OK past a collision", c.Key(), sub)
				}
				want := config.New(targets...)
				if !want.Connected() {
					t.Fatalf("%s sub %b: Apply OK past a disconnection", c.Key(), sub)
				}
				if !config.New(next...).Equal(want) {
					t.Fatalf("%s sub %b: successor %v, want %v", c.Key(), sub, next, want)
				}
			}
		}
	}
}

func TestSuccessorSortsAndDedups(t *testing.T) {
	targets := []grid.Coord{{Q: 2, R: 0}, {Q: 0, R: 1}, {Q: 0, R: 1}, {Q: 0, R: 0}}
	got := step.Successor(targets, nil)
	want := []grid.Coord{{Q: 0, R: 0}, {Q: 0, R: 1}, {Q: 2, R: 0}}
	if len(got) != len(want) {
		t.Fatalf("successor %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("successor %v, want %v", got, want)
		}
	}
}

// TestConnectedMatchesConfig checks the allocation-free connectivity
// against the map-based reference over enumerated patterns and their
// deliberately split variants.
func TestConnectedMatchesConfig(t *testing.T) {
	for i, c := range enumerate.Connected(7) {
		if i%100 != 0 {
			continue
		}
		nodes := c.Nodes()
		if !step.Connected(nodes) {
			t.Fatalf("connected pattern %s reported disconnected", c.Key())
		}
		// Teleport the last node far away: definitely split.
		split := append([]grid.Coord(nil), nodes...)
		split[len(split)-1] = grid.Coord{Q: 40, R: 40}
		splitCfg := config.New(split...)
		if step.Connected(splitCfg.Nodes()) != splitCfg.Connected() {
			t.Fatalf("split variant of %s diverges from reference", c.Key())
		}
	}
}

func TestIndexSorted(t *testing.T) {
	c := config.Line(grid.Origin, grid.E, 7)
	nodes := c.Nodes()
	for i, v := range nodes {
		if got := step.IndexSorted(nodes, v); got != i {
			t.Fatalf("IndexSorted(%v) = %d, want %d", v, got, i)
		}
	}
	if got := step.IndexSorted(nodes, grid.Coord{Q: -3, R: 9}); got != -1 {
		t.Fatalf("absent node found at %d", got)
	}
}

// TestNewRejectsUnpackableRange: packed views are the kernel's only
// Look, so an algorithm seeing past vision.MaxPackedRange is refused
// at construction rather than mis-decided later.
func TestNewRejectsUnpackableRange(t *testing.T) {
	step.New(core.Idle{Range: vision.MaxPackedRange}) // the widest packable range builds
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a visibility range past vision.MaxPackedRange")
		}
	}()
	step.New(core.Idle{Range: vision.MaxPackedRange + 1})
}
