package step

import "repro/internal/grid"

// Round executes one full-activation (FSYNC) round from the sorted
// node set: every robot Looks, Computes and Moves simultaneously — the
// kernel's step with the activation choice "everyone". It fills the
// caller's targets and moving scratch (both of length len(nodes)) and
// returns:
//
//   - (nil, movers, coll) when the simultaneous move vector violates a
//     §II-A collision rule — the round does not happen;
//   - (nil, 0, nil) when no robot wants to move — the terminal
//     all-stay observation (gathered or stalled is the caller's goal
//     predicate to decide);
//   - (next, movers, nil) otherwise, with the successor node set —
//     sorted, deduplicated — appended to dst.
//
// It is the one FSYNC transition of internal/sim's run loop, memoized
// or not: outcome propagation along Successor edges memoizes exactly
// the transitions this function takes. Kernels over packed algorithms
// run it allocation-free.
func (k Kernel) Round(nodes, targets []grid.Coord, moving []bool, dst []grid.Coord) ([]grid.Coord, int, *CollisionInfo) {
	movers := 0
	for i, pos := range nodes {
		if m := k.MoveAt(nodes, pos); m.IsMove() {
			targets[i] = pos.Step(m.Direction())
			moving[i] = true
			movers++
		} else {
			targets[i] = pos
			moving[i] = false
		}
	}
	if coll := DetectCollision(nodes, targets, moving); coll != nil {
		return nil, movers, coll
	}
	if movers == 0 {
		return nil, 0, nil
	}
	return Successor(targets, dst), movers, nil
}
