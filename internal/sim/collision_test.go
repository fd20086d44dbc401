package sim_test

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/step"
)

// TestDetectCollisionRules pins the three collision rules of §II-A on
// minimal move vectors, for the kernel's detector (the one every run
// loop uses) and the oracle's map-based one alike.
func TestDetectCollisionRules(t *testing.T) {
	a := grid.Origin
	b := grid.Coord{Q: 1, R: 0}
	c := grid.Coord{Q: 2, R: 0}
	d := grid.Coord{Q: 1, R: 1}
	legal := sim.CollisionKind(255)
	cases := []struct {
		name            string
		robots, targets []grid.Coord
		moving          []bool
		want            sim.CollisionKind
	}{
		{"swap (rule a)", []grid.Coord{a, b}, []grid.Coord{b, a}, []bool{true, true}, sim.Swap},
		{"onto stationary (rule b)", []grid.Coord{a, b}, []grid.Coord{b, b}, []bool{true, false}, sim.OntoStationary},
		{"merge (rule c)", []grid.Coord{a, c}, []grid.Coord{b, b}, []bool{true, true}, sim.Merge},
		{"convoy along one axis", []grid.Coord{a, b}, []grid.Coord{b, c}, []bool{true, true}, legal},
		{"enter a node vacated sideways", []grid.Coord{a, b}, []grid.Coord{b, d}, []bool{true, true}, legal},
	}
	detectors := map[string]func(robots, targets []grid.Coord, moving []bool) *sim.CollisionInfo{
		"kernel": step.DetectCollision,
		"oracle": oracle.DetectCollision,
	}
	for _, tc := range cases {
		for name, detect := range detectors {
			coll := detect(tc.robots, tc.targets, tc.moving)
			switch {
			case tc.want == legal && coll != nil:
				t.Errorf("%s: %s flagged a legal round: %+v", tc.name, name, coll)
			case tc.want != legal && (coll == nil || coll.Kind != tc.want):
				t.Errorf("%s: %s returned %+v, want %v", tc.name, name, coll, tc.want)
			}
		}
	}
}
