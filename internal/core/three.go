package core

import (
	"slices"

	"repro/internal/grid"
	"repro/internal/vision"
)

// ThreeGatherer gathers THREE robots into a filled triangle (the
// minimum-diameter configuration for three robots: all pairwise
// adjacent). It addresses the paper's §V future-work item 3 ("gathering
// for different number of robots") for the smallest interesting case.
//
// The key structural fact: a connected 3-robot configuration has diameter
// at most 2, so with visibility range 2 every robot always sees both
// others — the system is effectively full-information. The algorithm
// exploits that:
//
//   - all three robots reconstruct the same configuration (up to the
//     unknown translation, which cancels out of every decision);
//   - the unique robot at the lexicographically largest position (by Q,
//     then R — well-defined because positions are distinct and argmax is
//     translation-invariant) is the only mover, so no two robots ever
//     move in the same round and collisions are impossible;
//   - the mover steps to the empty adjacent node minimizing the sum of
//     distances to the other two (ties broken by the fixed direction
//     order), never increasing the sum and keeping the configuration
//     connected.
//
// Exhaustive verification over all 11 connected 3-robot patterns (and
// every reachable intermediate state) shows gathering in at most 3
// rounds with no collision, disconnection or livelock (experiment E10).
type ThreeGatherer struct{}

// Name implements Algorithm.
func (ThreeGatherer) Name() string { return "three-triangle" }

// VisibilityRange implements Algorithm; range 2 makes a connected trio
// fully mutually visible.
func (ThreeGatherer) VisibilityRange() int { return 2 }

// Compute implements Algorithm.
func (ThreeGatherer) Compute(v vision.View) Move {
	robots := v.Robots() // sorted by Q, then R; includes the origin (me)
	if len(robots) != 3 {
		return Stay // not a three-robot system; do nothing
	}
	if isTriangle(robots) {
		return Stay
	}
	// The mover is the robot at the largest (Q, R) position. Robots()
	// sorts ascending, so it is the last entry; every robot computes the
	// same argmax because translating all positions by the observer's
	// unknown location does not change it.
	mover := robots[2]
	if mover != grid.Origin {
		return Stay // someone else moves this round
	}
	others := []grid.Coord{robots[0], robots[1]}
	bestSum := distSum(grid.Origin, others)
	best := Stay
	for _, d := range grid.Directions {
		t := d.Delta()
		if !v.Empty(t) {
			continue
		}
		if !adjacentToAny(t, others) {
			continue // never step off the group
		}
		if !connectedAfter(t, others) {
			continue
		}
		if s := distSum(t, others); s < bestSum || (s == bestSum && best == Stay) {
			bestSum = s
			best = MoveIn(d)
		}
	}
	return best
}

// isTriangle reports whether the three positions are pairwise adjacent.
func isTriangle(robots []grid.Coord) bool {
	return robots[0].IsAdjacent(robots[1]) &&
		robots[0].IsAdjacent(robots[2]) &&
		robots[1].IsAdjacent(robots[2])
}

func distSum(from grid.Coord, others []grid.Coord) int {
	s := 0
	for _, o := range others {
		s += from.Distance(o)
	}
	return s
}

func adjacentToAny(t grid.Coord, others []grid.Coord) bool {
	for _, o := range others {
		if t.IsAdjacent(o) {
			return true
		}
	}
	return false
}

// connectedAfter checks the post-move trio is connected.
func connectedAfter(t grid.Coord, others []grid.Coord) bool {
	nodes := []grid.Coord{t, others[0], others[1]}
	slices.SortFunc(nodes, grid.Coord.Compare)
	// Three nodes are connected iff some node is adjacent to both others,
	// or the adjacency chain covers all three.
	adj := func(a, b grid.Coord) bool { return a.IsAdjacent(b) }
	ab, ac, bc := adj(nodes[0], nodes[1]), adj(nodes[0], nodes[2]), adj(nodes[1], nodes[2])
	return (ab && bc) || (ab && ac) || (ac && bc)
}

// TriangleGathered is the E10 goal predicate: three robots pairwise
// adjacent (the minimum-diameter 3-robot configuration).
func TriangleGathered(robots []grid.Coord) bool {
	return len(robots) == 3 && isTriangle(robots)
}

// threeMemo backs ThreeGatherer.ComputePacked (shared like the others;
// the algorithm is stateless).
var threeMemo = newMemoTable()

// ComputePacked implements PackedAlgorithm.
func (t ThreeGatherer) ComputePacked(pv vision.PackedView) Move { return threeMemo.compute(t, pv) }

var _ PackedAlgorithm = ThreeGatherer{}
