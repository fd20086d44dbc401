// Package grid implements the infinite triangular-grid substrate used by the
// gathering algorithm of Shibata et al. (arXiv:2103.08172).
//
// Nodes of a triangular grid have six neighbors; the adjacency structure is
// identical to that of hexagonal cells. We represent nodes with axial
// coordinates (Q, R) where the six compass directions of the paper map to
//
//	E  = (+1,  0)   NE = ( 0, +1)   NW = (-1, +1)
//	W  = (-1,  0)   SW = ( 0, -1)   SE = (+1, -1)
//
// The paper additionally labels nodes near a robot with pairs
// (x-element, y-element) (its Fig. 48); in axial coordinates these are
// x = 2Q+R and y = R. See Label.
package grid

import (
	"cmp"
	"fmt"
)

// Coord is a node of the infinite triangular grid in axial coordinates.
// The zero value is the origin.
type Coord struct {
	Q, R int
}

// Direction is one of the six edge directions of the triangular grid.
// Robots agree on the x-axis and chirality, so directions are global.
type Direction uint8

// The six directions in counter-clockwise order starting from east.
const (
	E Direction = iota
	NE
	NW
	W
	SW
	SE
	NumDirections = 6
)

// Directions lists all six directions in counter-clockwise order starting
// from east. Iterating this slice gives a deterministic neighbor order.
var Directions = [NumDirections]Direction{E, NE, NW, W, SW, SE}

var directionDeltas = [NumDirections]Coord{
	E:  {Q: 1, R: 0},
	NE: {Q: 0, R: 1},
	NW: {Q: -1, R: 1},
	W:  {Q: -1, R: 0},
	SW: {Q: 0, R: -1},
	SE: {Q: 1, R: -1},
}

var directionNames = [NumDirections]string{
	E: "E", NE: "NE", NW: "NW", W: "W", SW: "SW", SE: "SE",
}

// String returns the compass name of d ("E", "NE", ...).
func (d Direction) String() string {
	if int(d) < len(directionNames) {
		return directionNames[d]
	}
	return fmt.Sprintf("Direction(%d)", uint8(d))
}

// Valid reports whether d is one of the six grid directions.
func (d Direction) Valid() bool { return d < NumDirections }

// Delta returns the coordinate offset of one step in direction d.
func (d Direction) Delta() Coord { return directionDeltas[d] }

// Opposite returns the direction pointing the other way (E↔W, NE↔SW, NW↔SE).
func (d Direction) Opposite() Direction { return Direction((uint8(d) + 3) % NumDirections) }

// CCW returns the direction rotated one step counter-clockwise.
func (d Direction) CCW() Direction { return Direction((uint8(d) + 1) % NumDirections) }

// CW returns the direction rotated one step clockwise.
func (d Direction) CW() Direction { return Direction((uint8(d) + 5) % NumDirections) }

// ParseDirection converts a compass name to a Direction.
func ParseDirection(s string) (Direction, error) {
	for i, name := range directionNames {
		if s == name {
			return Direction(i), nil
		}
	}
	return 0, fmt.Errorf("grid: unknown direction %q", s)
}

// Origin is the distinguished node v_o of the paper. Robots never learn
// where it is; it exists only so that tests and tools have a fixed frame.
var Origin = Coord{}

// Add returns the node translated by the offset d.
func (c Coord) Add(d Coord) Coord { return Coord{Q: c.Q + d.Q, R: c.R + d.R} }

// Sub returns the offset from d to c.
func (c Coord) Sub(d Coord) Coord { return Coord{Q: c.Q - d.Q, R: c.R - d.R} }

// Compare orders nodes by Q, then R: the node order of a configuration.
func (c Coord) Compare(d Coord) int { return cmp.Or(cmp.Compare(c.Q, d.Q), cmp.Compare(c.R, d.R)) }

// Neg returns the opposite offset.
func (c Coord) Neg() Coord { return Coord{Q: -c.Q, R: -c.R} }

// Step returns the adjacent node in direction d.
func (c Coord) Step(d Direction) Coord { return c.Add(d.Delta()) }

// Neighbors returns the six adjacent nodes in Directions order (E first,
// then counter-clockwise).
func (c Coord) Neighbors() [NumDirections]Coord {
	var out [NumDirections]Coord
	for i, d := range Directions {
		out[i] = c.Step(d)
	}
	return out
}

// IsAdjacent reports whether c and d are joined by an edge.
func (c Coord) IsAdjacent(d Coord) bool { return c.Distance(d) == 1 }

// Distance returns the graph (shortest-path) distance between c and d.
// On the triangular grid this is the hexagonal axial distance
// (|dq| + |dr| + |dq+dr|) / 2.
func (c Coord) Distance(d Coord) int {
	dq := c.Q - d.Q
	dr := c.R - d.R
	return (abs(dq) + abs(dr) + abs(dq+dr)) / 2
}

// Norm returns the distance from the origin.
func (c Coord) Norm() int { return c.Distance(Origin) }

// String renders the node as "(q,r)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Q, c.R) }

// DirectionTo returns the direction of the single step from c to the
// adjacent node d. It panics if the nodes are not adjacent; callers that
// are unsure should check IsAdjacent first.
func (c Coord) DirectionTo(d Coord) Direction {
	delta := d.Sub(c)
	for i, dd := range directionDeltas {
		if dd == delta {
			return Direction(i)
		}
	}
	panic(fmt.Sprintf("grid: %v and %v are not adjacent", c, d))
}

// Ring returns the nodes at exactly distance k from c, in counter-clockwise
// order starting from the node k steps east. Ring(0) is just {c}.
func (c Coord) Ring(k int) []Coord {
	if k < 0 {
		panic("grid: negative ring radius")
	}
	if k == 0 {
		return []Coord{c}
	}
	out := make([]Coord, 0, 6*k)
	// Start k steps east of c, then walk k steps in each of the six
	// successive directions beginning with NW (the direction that keeps
	// the walk on the ring counter-clockwise).
	cur := c
	for i := 0; i < k; i++ {
		cur = cur.Step(E)
	}
	walk := [NumDirections]Direction{NW, W, SW, SE, E, NE}
	for _, d := range walk {
		for i := 0; i < k; i++ {
			out = append(out, cur)
			cur = cur.Step(d)
		}
	}
	return out
}

// Disk returns all nodes within distance k of c (the closed ball), ordered
// by increasing distance and counter-clockwise within each ring. Its length
// is 1 + 3k(k+1).
func (c Coord) Disk(k int) []Coord {
	if k < 0 {
		panic("grid: negative disk radius")
	}
	out := make([]Coord, 0, 1+3*k*(k+1))
	for r := 0; r <= k; r++ {
		out = append(out, c.Ring(r)...)
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
