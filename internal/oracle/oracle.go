// Package oracle is the independent reference implementation the
// engine's equivalence tests compare against. Every production path
// runs on the packed transition kernel (internal/step) and the
// key-native enumerator; this package re-derives the same semantics the
// slow, obvious way — map-based views (vision.Look), map-based collision
// detection, string-keyed cycle detection over (pattern, phase) states
// and string-keyed enumeration —
// sharing no code with the kernel beyond the data types and the
// algorithms under test.
//
// It is imported only by tests. oracle_test.go fails if any non-test
// file in the module imports it, so production binaries never carry a
// second implementation of the dynamics.
package oracle

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/step"
	"repro/internal/vision"
)

// Run executes alg from initial under FSYNC on the map/string reference
// loop. It honors MaxRounds, RecordTrace, DetectCycles,
// StopOnDisconnect and Goal exactly as sim.Run does and ignores the
// performance knobs (CycleSet, Outcomes): sim.Run must match it
// result for result.
func Run(alg core.Algorithm, initial config.Config, opts sim.Options) sim.Result {
	return RunActivated(alg, initial, nil, opts)
}

// RunActivated is Run under the activation a (nil: every robot, every
// round) — the reference sim.RunActivated and sched.Run must match. It
// spells out the partial-activation rules:
//
//   - an idle round (no activated robot moves) decides the state
//     gathered or stalled only under full activation or after an idle
//     streak of 4·n rounds; otherwise it burns budget without counting
//     as a round;
//   - under a sim.Periodic activation the cycle set holds (pattern,
//     round mod period), and a repeat is a livelock;
//   - under any other activation only the patterns reached by a
//     full-activation round (and the initial one) enter the cycle set.
func RunActivated(alg core.Algorithm, initial config.Config, a sim.Activation, opts sim.Options) sim.Result {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = sim.DefaultMaxRounds
	}
	n := initial.Len()
	period := 1 // 0: none declared
	if a != nil {
		period = 0
		if p, ok := a.(sim.Periodic); ok {
			period = max(p.Period(n), 1)
		}
	}
	cur := initial
	res := sim.Result{Final: cur}
	if opts.RecordTrace {
		res.Trace = append(res.Trace, cur)
	}
	var seen map[string]bool
	if opts.DetectCycles {
		seen = map[string]bool{stateKey(cur, 0): true}
	}
	goal := opts.Goal
	if goal == nil {
		goal = config.GoalFor(initial.Len())
	}
	idle := 0
	for round := 0; round < maxRounds; round++ {
		var active []int
		if a != nil {
			active = a.Select(n, round)
		}
		full := a == nil || len(active) == n
		next, moved, coll := stepActive(alg, cur, active)
		if coll != nil {
			res.Status = sim.Collision
			res.Collision = coll
			res.Final = cur
			return res
		}
		if moved == 0 {
			if !full && idle < 4*n {
				idle++
				continue
			}
			if goal(cur) {
				res.Status = sim.Gathered
			} else {
				res.Status = sim.Stalled
			}
			res.Final = cur
			return res
		}
		idle = 0
		res.Rounds++
		res.Moves += moved
		cur = next
		res.Final = cur
		if opts.RecordTrace {
			res.Trace = append(res.Trace, cur)
		}
		if opts.StopOnDisconnect && !cur.Connected() {
			res.Status = sim.Disconnected
			return res
		}
		if opts.DetectCycles && (period > 0 || full) {
			phase := 0
			if period > 0 {
				phase = (round + 1) % period
			}
			k := stateKey(cur, phase)
			if seen[k] {
				res.Status = sim.Livelock
				return res
			}
			seen[k] = true
		}
	}
	res.Status = sim.RoundLimit
	return res
}

// stateKey names the execution state (pattern, phase).
func stateKey(c config.Config, phase int) string {
	return fmt.Sprintf("%d@%s", phase, c.Key())
}

// Step executes one FSYNC round with map-based views: every robot
// Looks, Computes and Moves simultaneously. It returns the next
// configuration, the number of robots that moved, and the first
// collision found (nil if the round is legal); on collision the
// returned configuration is the unchanged input.
func Step(alg core.Algorithm, cur config.Config) (config.Config, int, *step.CollisionInfo) {
	return stepActive(alg, cur, nil)
}

// stepActive is Step with only the robots of active (indices into the
// sorted node list; nil: every robot) activated; the rest stay.
func stepActive(alg core.Algorithm, cur config.Config, active []int) (config.Config, int, *step.CollisionInfo) {
	robots := cur.Nodes()
	targets := cur.Nodes()
	moving := make([]bool, len(robots))
	moved := 0
	for i, pos := range robots {
		if active != nil && !slices.Contains(active, i) {
			continue
		}
		m := alg.Compute(vision.Look(cur, pos, alg.VisibilityRange()))
		targets[i] = m.Apply(pos)
		moving[i] = m.IsMove()
		if moving[i] {
			moved++
		}
	}
	if coll := DetectCollision(robots, targets, moving); coll != nil {
		return cur, 0, coll
	}
	return config.New(targets...), moved, nil
}

// DetectCollision applies the three rules of §II-A to a simultaneous
// move vector with maps: robots[i] moves to targets[i] iff moving[i].
// It returns the first violation in robot order, or nil — the contract
// step.DetectCollision must reproduce.
func DetectCollision(robots, targets []grid.Coord, moving []bool) *step.CollisionInfo {
	pos := make(map[grid.Coord]int, len(robots))
	for i, p := range robots {
		pos[p] = i
	}
	targetCount := make(map[grid.Coord]int, len(robots))
	for i, t := range targets {
		if moving[i] {
			targetCount[t]++
		}
	}
	for i := range robots {
		if !moving[i] {
			continue
		}
		t := targets[i]
		if j, occupied := pos[t]; occupied {
			if !moving[j] {
				// Rule (b): moving onto a robot that stays.
				return &step.CollisionInfo{Kind: step.OntoStationary, Node: t}
			}
			if targets[j] == robots[i] {
				// Rule (a): the two robots swap along one edge.
				return &step.CollisionInfo{Kind: step.Swap, Node: t}
			}
		}
		if targetCount[t] > 1 {
			// Rule (c): several robots move onto the same node.
			return &step.CollisionInfo{Kind: step.Merge, Node: t}
		}
	}
	return nil
}

// Connected returns every n-node pattern up to translation whose
// visibility graph at range visRange is connected, normalized and
// sorted by config.Compare: growth by one node within visRange of the
// pattern per generation, deduplicated by canonical string key. At
// visRange = 1 these are the connected patterns. It is the reference
// the enumeration engine (and its "key/v1" order) must reproduce.
func Connected(n, visRange int) []config.Config {
	if n <= 0 {
		return nil
	}
	current := map[string]config.Config{config.New(grid.Origin).Key(): config.New(grid.Origin)}
	for size := 1; size < n; size++ {
		next := make(map[string]config.Config, len(current)*4)
		for _, c := range current {
			for _, v := range c.Nodes() {
				for _, nb := range v.Disk(visRange)[1:] {
					if c.Has(nb) {
						continue
					}
					ext := config.New(append(c.Nodes(), nb)...).Normalize()
					next[ext.Key()] = ext
				}
			}
		}
		current = next
	}
	out := make([]config.Config, 0, len(current))
	for _, c := range current {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
