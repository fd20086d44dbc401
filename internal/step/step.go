// Package step is the shared packed transition kernel: the single
// look→compute→move implementation of the system's dynamics, consumed
// by every execution layer — the FSYNC round loop (internal/sim), the
// partial-activation schedulers (internal/sched), and the adversarial
// safety-game solver (internal/adversary).
//
// One SSYNC round is an activation choice followed by a simultaneous
// deterministic step: each activated robot Looks, Computes and Moves at
// once, the rest keep their positions (FSYNC is the choice "everyone").
// Before the kernel existed, that step was reimplemented three times —
// the FSYNC round loop, sched.Run, and adversary's expand/applySubset —
// each with its own copy of the packed-view fast path, the §II-A collision
// rules, the disconnection check and the sorted-slice bookkeeping. The
// kernel is the one place all of it lives now:
//
//   - Kernel binds an algorithm to the look→compute machinery: every
//     Look is a packed bitmask view taken straight from the sorted node
//     slice; algorithms that implement core.PackedAlgorithm decide from
//     it through their memo tables, the rest from its unpacked View.
//     MoveAt decides one robot; Moves fills the whole per-round
//     decision vector and reports the movers.
//   - DetectCollision applies the three collision rules of §II-A to a
//     simultaneous move vector over a sorted robot slice, allocation-
//     free (binary searches instead of maps).
//   - Successor produces the post-move node set, sorted and
//     deduplicated, into a caller-owned buffer; Connected checks
//     adjacency-connectivity of a sorted set without allocating.
//   - Apply composes all of the above for the safety game: decision
//     vector + activation subset (a Mask over sorted robot indices) →
//     successor or terminal outcome (collision / disconnection).
//
// Everything operates on sorted node slices (the config.Config
// invariant: ascending by Q, then R) with caller-owned scratch, so the
// hot loops of all three layers stay allocation-free. The kernel is the
// one production implementation of the dynamics; the independent
// map/string reference the equivalence tests compare it against lives
// in the test-only internal/oracle package.
package step

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/vision"
)

// MaskBits is the widest robot count a Mask can address. The adversary
// solver's domain (config.Key128-exact connected patterns, ≤ 14 robots)
// sits strictly inside it.
const MaskBits = 16

// Mask is a set of robot indices into a sorted node slice, one bit per
// index — the activation-subset currency of the safety game. Valid for
// configurations of at most MaskBits robots.
type Mask uint16

// Has reports whether index i is in the mask.
func (m Mask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Count returns the number of indices in the mask.
func (m Mask) Count() int { return bits.OnesCount16(uint16(m)) }

// Indices expands the mask into the sorted index list of the
// sched.Scheduler.Select contract.
func (m Mask) Indices() []int {
	out := make([]int, 0, m.Count())
	for i := 0; m != 0; i, m = i+1, m>>1 {
		if m&1 != 0 {
			out = append(out, i)
		}
	}
	return out
}

// MaskOf builds the mask of the given indices.
func MaskOf(indices []int) Mask {
	var m Mask
	for _, i := range indices {
		m |= 1 << uint(i)
	}
	return m
}

// Outcome classifies the immediate effect of one applied activation.
type Outcome uint8

const (
	// OK: the step is legal and keeps the configuration connected (when
	// checked).
	OK Outcome = iota
	// Collided: the move vector violates a §II-A collision rule.
	Collided
	// Disconnected: the successor configuration splits.
	Disconnected
)

// CollisionKind distinguishes the three prohibited behaviors of §II-A.
type CollisionKind uint8

// The three collision rules.
const (
	// Swap: two robots traverse the same edge in opposite directions
	// (rule (a)).
	Swap CollisionKind = iota
	// OntoStationary: a robot moves onto a node whose occupant stays
	// (rule (b)).
	OntoStationary
	// Merge: several robots move onto the same empty node (rule (c)).
	Merge
)

var collisionNames = [...]string{Swap: "swap", OntoStationary: "onto-stationary", Merge: "merge"}

// String returns the collision rule name.
func (k CollisionKind) String() string {
	if int(k) < len(collisionNames) {
		return collisionNames[k]
	}
	return fmt.Sprintf("CollisionKind(%d)", uint8(k))
}

// CollisionInfo describes the first collision detected in a round.
type CollisionInfo struct {
	Kind CollisionKind
	// Node is the contested node (the target node of the offending move).
	Node grid.Coord
}

// Kernel binds one algorithm to the look→compute machinery. Every Look
// is a vision.PackedView taken from the sorted node slice; algorithms
// implementing core.PackedAlgorithm decide from it directly (their
// memo tables make a decision a map probe), any other algorithm from
// its unpacked View. The zero value is not usable; build with New. A
// Kernel is an immutable value — copy it freely, share it across
// goroutines.
type Kernel struct {
	alg      core.Algorithm
	packed   core.PackedAlgorithm // nil: decide through Compute
	visRange int
}

// New builds the kernel for an algorithm. A nil algorithm selects the
// full Gatherer, mirroring every layer's historical default. It panics
// on a visibility range past vision.MaxPackedRange: packed views are the
// kernel's only Look, and the model's algorithms see at most 2 hops.
func New(alg core.Algorithm) Kernel {
	if alg == nil {
		alg = core.Gatherer{}
	}
	k := Kernel{alg: alg, visRange: alg.VisibilityRange()}
	if k.visRange < 0 || k.visRange > vision.MaxPackedRange {
		panic(fmt.Sprintf("step: %s: visibility range %d outside [0,%d]", alg.Name(), k.visRange, vision.MaxPackedRange))
	}
	k.packed, _ = alg.(core.PackedAlgorithm)
	return k
}

// Algorithm returns the algorithm the kernel was built for.
func (k Kernel) Algorithm() core.Algorithm { return k.alg }

// MoveAt is the single Look-Compute step of the dynamics: the decision
// of the robot at pos within the sorted node slice. nodes must be
// sorted by Q then R — the config.Config invariant.
func (k Kernel) MoveAt(nodes []grid.Coord, pos grid.Coord) core.Move {
	pv, _ := vision.LookPackedSorted(nodes, pos, k.visRange) // range checked at construction
	if k.packed != nil {
		return k.packed.ComputePacked(pv)
	}
	return k.alg.Compute(pv.Unpack())
}

// Moves fills the per-robot decision vector for one round — moves[i]
// is robot i's Look-Compute result — and returns the number of movers.
// moves must have length len(nodes).
func (k Kernel) Moves(nodes []grid.Coord, moves []core.Move) (movers int) {
	for i, pos := range nodes {
		m := k.MoveAt(nodes, pos)
		moves[i] = m
		if m.IsMove() {
			movers++
		}
	}
	return movers
}

// MoverMask returns the mover bitmask of a decision vector. The vector
// must describe at most MaskBits robots.
func MoverMask(moves []core.Move) Mask {
	var m Mask
	for i, mv := range moves {
		if mv.IsMove() {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Apply executes one activation of the safety game: the robots in sub
// (a bitmask over sorted node indices; activating a non-mover is a
// no-op, so callers conventionally pass sub ⊆ MoverMask(moves)) step
// simultaneously per the decision vector, the rest stay. The successor
// node set — sorted, deduplicated — is appended to dst and returned
// with OK; a collision or disconnection returns a nil slice and the
// terminal outcome instead. len(nodes) must be at most MaskBits.
func Apply(nodes []grid.Coord, moves []core.Move, sub Mask, dst []grid.Coord) ([]grid.Coord, Outcome) {
	var targets [MaskBits]grid.Coord
	var moving [MaskBits]bool
	n := len(nodes)
	for i, pos := range nodes {
		if sub.Has(i) && moves[i].IsMove() {
			targets[i] = moves[i].Apply(pos)
			moving[i] = true
		} else {
			targets[i] = pos
			moving[i] = false
		}
	}
	if DetectCollision(nodes, targets[:n], moving[:n]) != nil {
		return nil, Collided
	}
	next := Successor(targets[:n], dst)
	if !Connected(next) {
		return nil, Disconnected
	}
	return next, OK
}

// DetectCollision applies the three rules of §II-A to a simultaneous
// move vector over a sorted robot slice: robots[i] moves to targets[i]
// iff moving[i]. It returns the first violation in robot order (same
// iteration order, same rule precedence as the map-based reference in
// internal/oracle), or nil; the maps are replaced by binary
// searches and an O(n²) target scan — a win for the small n of every
// workload here, and allocation-free.
func DetectCollision(robots, targets []grid.Coord, moving []bool) *CollisionInfo {
	for i := range robots {
		if !moving[i] {
			continue
		}
		t := targets[i]
		if j := IndexSorted(robots, t); j >= 0 {
			if !moving[j] {
				return &CollisionInfo{Kind: OntoStationary, Node: t}
			}
			if targets[j] == robots[i] {
				return &CollisionInfo{Kind: Swap, Node: t}
			}
		}
		count := 0
		for j := range targets {
			if moving[j] && targets[j] == t {
				count++
			}
		}
		if count > 1 {
			return &CollisionInfo{Kind: Merge, Node: t}
		}
	}
	return nil
}

// Successor appends the post-move node set to dst — sorted by Q then R,
// adjacent duplicates removed — and returns the extended slice. Legal
// move vectors (DetectCollision == nil) never actually collapse nodes,
// so the dedup is defensive; callers pass dst[:0] of a reused buffer to
// stay allocation-free.
func Successor(targets []grid.Coord, dst []grid.Coord) []grid.Coord {
	dst = append(dst, targets...)
	insertionSortCoords(dst)
	return dedupSortedCoords(dst)
}

// IndexSorted returns the index of v in the sorted node list, or -1.
func IndexSorted(nodes []grid.Coord, v grid.Coord) int {
	lo, hi := 0, len(nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		n := nodes[mid]
		if n.Q < v.Q || (n.Q == v.Q && n.R < v.R) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nodes) && nodes[lo] == v {
		return lo
	}
	return -1
}

// Connected reports whether the sorted node set induces a connected
// subgraph, using a fixed-size visited mask and index stack so the
// per-round check allocates nothing. Sets larger than 64 nodes fall
// back to the map-based check (no current workload comes close).
func Connected(nodes []grid.Coord) bool {
	n := len(nodes)
	if n <= 1 {
		return true
	}
	if n > 64 {
		return config.New(nodes...).Connected()
	}
	var visited uint64 = 1
	var stack [64]int8
	stack[0] = 0
	sp := 1
	count := 1
	for sp > 0 {
		sp--
		v := nodes[stack[sp]]
		for _, d := range grid.Directions {
			j := IndexSorted(nodes, v.Step(d))
			if j >= 0 && visited&(1<<uint(j)) == 0 {
				visited |= 1 << uint(j)
				count++
				stack[sp] = int8(j)
				sp++
			}
		}
	}
	return count == n
}

// insertionSortCoords sorts a small coord slice in place by Q then R —
// closure-free, so the hot loops stay allocation-free.
func insertionSortCoords(cs []grid.Coord) {
	for i := 1; i < len(cs); i++ {
		v := cs[i]
		j := i - 1
		for j >= 0 && (cs[j].Q > v.Q || (cs[j].Q == v.Q && cs[j].R > v.R)) {
			cs[j+1] = cs[j]
			j--
		}
		cs[j+1] = v
	}
}

// dedupSortedCoords removes adjacent duplicates in place.
func dedupSortedCoords(cs []grid.Coord) []grid.Coord {
	if len(cs) == 0 {
		return cs
	}
	out := cs[:1]
	for _, c := range cs[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}
