// Package config represents configurations of the robot system: the set of
// robot nodes on the triangular grid. It provides translation
// normalization, connectivity, the gathered-hexagon predicate, diameters,
// and textual encodings used by the tools and tests.
//
// Robots are anonymous, so a configuration is a set of nodes, not a tuple;
// two configurations that differ by a translation are the same pattern
// (robots have no global positions). Canonical keys quotient by
// translation only — the paper's robots agree on the x-axis and chirality,
// so rotations and reflections are distinguishable and must NOT be merged
// (this is why the paper counts 3652 initial patterns, the number of fixed
// 7-cell polyhexes).
package config

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/grid"
)

// Config is a set of robot nodes. The exported representation is a sorted
// slice (by Q, then R) with no duplicates; use New to build one safely.
// The zero value is the empty configuration.
type Config struct {
	nodes []grid.Coord // sorted, deduplicated
}

// New builds a configuration from the given nodes, discarding duplicates.
func New(nodes ...grid.Coord) Config {
	out := make([]grid.Coord, len(nodes))
	copy(out, nodes)
	slices.SortFunc(out, grid.Coord.Compare)
	return Config{nodes: slices.Compact(out)}
}

// Len returns the number of robot nodes.
func (c Config) Len() int { return len(c.nodes) }

// Nodes returns a copy of the robot nodes in sorted order.
func (c Config) Nodes() []grid.Coord {
	out := make([]grid.Coord, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// AppendNodes appends the robot nodes in sorted order to dst and returns
// the extended slice. It is the allocation-free counterpart of Nodes for
// callers that reuse a scratch buffer.
func (c Config) AppendNodes(dst []grid.Coord) []grid.Coord {
	return append(dst, c.nodes...)
}

// Has reports whether node v is a robot node.
func (c Config) Has(v grid.Coord) bool {
	_, ok := slices.BinarySearchFunc(c.nodes, v, grid.Coord.Compare)
	return ok
}

// Set returns the configuration as a membership map.
func (c Config) Set() map[grid.Coord]bool {
	m := make(map[grid.Coord]bool, len(c.nodes))
	for _, n := range c.nodes {
		m[n] = true
	}
	return m
}

// Translate returns the configuration shifted by offset d.
func (c Config) Translate(d grid.Coord) Config {
	out := make([]grid.Coord, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Add(d)
	}
	return Config{nodes: out} // translation preserves sort order
}

// Normalize translates the configuration so its lexicographically smallest
// node (by Q then R) sits at the origin. Two configurations are the same
// pattern iff their normalizations are equal.
func (c Config) Normalize() Config {
	if len(c.nodes) == 0 {
		return c
	}
	return c.Translate(c.nodes[0].Neg())
}

// Key returns a canonical string key for the pattern (translation-invariant).
func (c Config) Key() string {
	n := c.Normalize()
	var b strings.Builder
	for i, v := range n.nodes {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d,%d", v.Q, v.R)
	}
	return b.String()
}

// Equal reports whether the two configurations occupy the same nodes.
func (c Config) Equal(o Config) bool {
	if len(c.nodes) != len(o.nodes) {
		return false
	}
	for i := range c.nodes {
		if c.nodes[i] != o.nodes[i] {
			return false
		}
	}
	return true
}

// Compare orders configurations by node count, then lexicographically by
// the sorted node lists (Q before R). It is the deterministic order the
// enumeration emits.
func (c Config) Compare(o Config) int {
	if len(c.nodes) != len(o.nodes) {
		if len(c.nodes) < len(o.nodes) {
			return -1
		}
		return 1
	}
	for i, v := range c.nodes {
		if d := v.Compare(o.nodes[i]); d != 0 {
			return d
		}
	}
	return 0
}

// SamePattern reports whether the two configurations are equal up to
// translation.
func (c Config) SamePattern(o Config) bool {
	return c.Normalize().Equal(o.Normalize())
}

// Connected reports whether the subgraph induced by the robot nodes is
// connected. The empty configuration is vacuously connected.
func (c Config) Connected() bool {
	if len(c.nodes) <= 1 {
		return true
	}
	set := c.Set()
	stack := []grid.Coord{c.nodes[0]}
	seen := map[grid.Coord]bool{c.nodes[0]: true}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range v.Neighbors() {
			if set[n] && !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(seen) == len(c.nodes)
}

// Gathered reports whether the configuration is a gathering-achieved
// configuration for seven robots: one robot node whose six neighbors are
// all robot nodes (the filled hexagon of the paper's Fig. 1). It returns
// false for configurations of any other size.
func (c Config) Gathered() bool {
	if len(c.nodes) != 7 {
		return false
	}
	center, ok := c.Center()
	_ = center
	return ok
}

// Center returns the hexagon center if the configuration is a gathered
// seven-robot hexagon, and whether it is one.
func (c Config) Center() (grid.Coord, bool) {
	if len(c.nodes) != 7 {
		return grid.Coord{}, false
	}
	set := c.Set()
	for _, v := range c.nodes {
		all := true
		for _, n := range v.Neighbors() {
			if !set[n] {
				all = false
				break
			}
		}
		if all {
			return v, true
		}
	}
	return grid.Coord{}, false
}

// Diameter returns the maximum pairwise distance between robot nodes.
// The distance is max(|Δq|, |Δr|, |Δq+Δr|), so the diameter is the
// largest span of q, r and q+r over the nodes, found in one pass.
func (c Config) Diameter() int {
	if len(c.nodes) == 0 {
		return 0
	}
	// Nodes are sorted by Q, so the q span is the ends' difference.
	q := c.nodes[len(c.nodes)-1].Q - c.nodes[0].Q
	loR, hiR := c.nodes[0].R, c.nodes[0].R
	loS, hiS := c.nodes[0].Q+c.nodes[0].R, c.nodes[0].Q+c.nodes[0].R
	for _, v := range c.nodes[1:] {
		loR, hiR = min(loR, v.R), max(hiR, v.R)
		loS, hiS = min(loS, v.Q+v.R), max(hiS, v.Q+v.R)
	}
	return max(q, hiR-loR, hiS-loS)
}

// Hexagon returns the gathered configuration centered at v.
func Hexagon(v grid.Coord) Config {
	nodes := append([]grid.Coord{v}, v.Ring(1)...)
	return New(nodes...)
}

// Line returns n robots in a row starting at start, stepping in direction d.
func Line(start grid.Coord, d grid.Direction, n int) Config {
	nodes := make([]grid.Coord, n)
	cur := start
	for i := 0; i < n; i++ {
		nodes[i] = cur
		cur = cur.Step(d)
	}
	return New(nodes...)
}

// String renders the configuration as its sorted node list.
func (c Config) String() string {
	parts := make([]string, len(c.nodes))
	for i, v := range c.nodes {
		parts[i] = v.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
