// Package vision implements robot views: the information a robot obtains in
// the Look phase. A view is the set of robot nodes within the visibility
// range, expressed in the robot's own frame (the robot at the relative
// origin). Robots are transparent (§II-A), so a view contains every robot
// within range, even behind other robots.
package vision

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/config"
	"repro/internal/grid"
)

// View is a snapshot of the nodes within a robot's visibility range.
// Offsets are relative to the observing robot; the origin offset is always
// occupied (the robot sees itself).
type View struct {
	rng      int
	occupied map[grid.Coord]bool
}

// Look computes the view of a robot standing at pos in configuration c with
// the given visibility range. It panics if pos is not a robot node — a
// robot cannot look from a node it does not occupy.
func Look(c config.Config, pos grid.Coord, visRange int) View {
	if visRange < 0 {
		panic("vision: negative visibility range")
	}
	if !c.Has(pos) {
		panic(fmt.Sprintf("vision: no robot at %v", pos))
	}
	occ := map[grid.Coord]bool{}
	for _, v := range pos.Disk(visRange) {
		if c.Has(v) {
			occ[v.Sub(pos)] = true
		}
	}
	return View{rng: visRange, occupied: occ}
}

// FromOffsets builds a view directly from relative offsets (used by tests
// and the impossibility machinery). The origin is added implicitly.
func FromOffsets(visRange int, offsets ...grid.Coord) View {
	occ := map[grid.Coord]bool{grid.Origin: true}
	for _, o := range offsets {
		if o.Norm() > visRange {
			panic(fmt.Sprintf("vision: offset %v outside range %d", o, visRange))
		}
		occ[o] = true
	}
	return View{rng: visRange, occupied: occ}
}

// Range returns the visibility range of the view.
func (v View) Range() int { return v.rng }

// Robot reports whether the node at the given relative offset is a robot
// node. Offsets outside the visibility range are reported as empty — the
// robot cannot see them — so rule code can test labels uniformly.
func (v View) Robot(rel grid.Coord) bool { return v.occupied[rel] }

// Empty reports whether the node at the given relative offset is visible
// and empty. It is NOT the negation of Robot: nodes outside the range are
// neither Robot nor Empty.
func (v View) Empty(rel grid.Coord) bool {
	return rel.Norm() <= v.rng && !v.occupied[rel]
}

// RobotL and EmptyL are the label-addressed forms used by the algorithm
// code, which follows the paper's pseudocode written in labels.
func (v View) RobotL(l grid.Label) bool { return v.Robot(l.Coord()) }

// EmptyL reports whether the labelled node is visible and empty.
func (v View) EmptyL(l grid.Label) bool { return v.Empty(l.Coord()) }

// Robots returns the occupied relative offsets in sorted order (by Q then
// R). The origin is always included.
func (v View) Robots() []grid.Coord {
	out := make([]grid.Coord, 0, len(v.occupied))
	for o := range v.occupied {
		out = append(out, o)
	}
	slices.SortFunc(out, grid.Coord.Compare)
	return out
}

// Count returns the number of robots in view (including the observer).
func (v View) Count() int { return len(v.occupied) }

// AdjacentRobots returns the subset of the six directions whose adjacent
// node is occupied.
func (v View) AdjacentRobots() []grid.Direction {
	var out []grid.Direction
	for _, d := range grid.Directions {
		if v.occupied[d.Delta()] {
			out = append(out, d)
		}
	}
	return out
}

// Key returns a canonical string for the view (range plus sorted offsets),
// usable as a map key.
func (v View) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "r%d:", v.rng)
	for i, o := range v.Robots() {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d,%d", o.Q, o.R)
	}
	return b.String()
}

// String renders the view as its key.
func (v View) String() string { return v.Key() }

// Mask6 encodes a range-1 view as a 6-bit mask in Directions order
// (bit i set ⇔ neighbor Directions[i] occupied). It panics if the view's
// range is not 1; range-1 views are the unit of the impossibility analysis.
func (v View) Mask6() uint8 {
	if v.rng != 1 {
		panic("vision: Mask6 requires a range-1 view")
	}
	var m uint8
	for i, d := range grid.Directions {
		if v.occupied[d.Delta()] {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Mask6View reconstructs a range-1 view from a 6-bit mask.
func Mask6View(m uint8) View {
	occ := map[grid.Coord]bool{grid.Origin: true}
	for i, d := range grid.Directions {
		if m&(1<<uint(i)) != 0 {
			occ[d.Delta()] = true
		}
	}
	return View{rng: 1, occupied: occ}
}
