package repro

// The packed engine (bitmask views, memoized ComputePacked, compact
// pattern keys, the allocation-free round loop) is a pure optimization:
// it must be observationally identical to the map/string reference in
// the test-only internal/oracle package. These tests pin that down at
// every layer — per-view decisions, enumeration dedup, and the full
// Theorem 2 sweep.

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/vision"
)

// legacyOnly hides an algorithm's ComputePacked method, so the kernel
// decides every view through the map-based Compute instead of the
// algorithm's packed memo table.
type legacyOnly struct{ core.Algorithm }

// TestComputePackedMatchesCompute checks, for every view arising in the
// full n=7 enumeration (every robot of every one of the 3652 initial
// patterns) and every shipped packed algorithm, that the packed fast
// path decides exactly what the legacy Compute decides.
func TestComputePackedMatchesCompute(t *testing.T) {
	algs := []core.PackedAlgorithm{
		core.Gatherer{},
		core.Gatherer{Variant: core.VariantNoTable},
		core.Gatherer{Variant: core.VariantNoReconstruction},
		core.Gatherer{Variant: core.VariantPaper},
		core.GreedyEast{},
		core.Idle{},
	}
	views := 0
	for _, c := range enumerate.Connected(7) {
		for _, pos := range c.Nodes() {
			v := vision.Look(c, pos, 2)
			pv, ok := v.Pack()
			if !ok {
				t.Fatalf("range-2 view failed to pack: %s", v.Key())
			}
			views++
			for _, alg := range algs {
				if got, want := alg.ComputePacked(pv), alg.Compute(v); got != want {
					t.Fatalf("%s: ComputePacked=%v Compute=%v on view %s",
						alg.Name(), got, want, v.Key())
				}
			}
		}
	}
	if views != 7*enumerate.KnownCounts[7] {
		t.Fatalf("swept %d views, want %d", views, 7*enumerate.KnownCounts[7])
	}
}

// TestThreeGathererPackedMatchesCompute covers the E10 algorithm on its
// own configuration space (all 11 connected 3-robot patterns).
func TestThreeGathererPackedMatchesCompute(t *testing.T) {
	for _, c := range enumerate.Connected(3) {
		for _, pos := range c.Nodes() {
			v := vision.Look(c, pos, 2)
			pv, _ := v.Pack()
			alg := core.ThreeGatherer{}
			if got, want := alg.ComputePacked(pv), alg.Compute(v); got != want {
				t.Fatalf("three-gatherer: ComputePacked=%v Compute=%v on %s", got, want, v.Key())
			}
		}
	}
}

// TestCompactDedupMatchesStringDedup checks that the enumeration,
// which keys each pattern by its exact config.Key128 and keeps no
// dedup set, produces exactly the same pattern list as the oracle's string-key dedup for
// every size through n=8: the paper's 3652 patterns at n=7, and the
// full 16689-pattern E11 space at n=8 (skipped under -short).
func TestCompactDedupMatchesStringDedup(t *testing.T) {
	top := 8
	if testing.Short() {
		top = 7
	}
	for n := 1; n <= top; n++ {
		want := oracle.Connected(n, 1)
		got := enumerate.Connected(n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d patterns, want %d", n, len(got), len(want))
		}
		for i, c := range got {
			if c.Key() != want[i].Key() {
				t.Fatalf("n=%d: pattern %d is %s, string-keyed reference has %s", n, i, c.Key(), want[i].Key())
			}
		}
	}
}

// TestPackedSweepReportMatchesLegacy runs the full Theorem 2 sweep on
// the engine and replays every one of its 3652 patterns through the
// oracle's map/string loop: same per-case status, rounds and moves,
// and the same aggregates recomputed from the oracle's runs. A second
// sweep with ComputePacked hidden must produce the byte-identical
// report.
func TestPackedSweepReportMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("full 3652-pattern sweep against the reference loop in -short mode")
	}
	run := func(alg core.Algorithm) *sweep.Report {
		rep, err := sweep.Run(context.Background(), sweep.Spec{Alg: alg, KeepCases: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	packed := run(core.Gatherer{})
	if unpacked := run(legacyOnly{core.Gatherer{}}); unpacked.String() != packed.String() {
		t.Fatalf("report mismatch:\npacked:   %s\nunpacked: %s", packed, unpacked)
	}
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true}
	byStatus := map[sim.Status]int{}
	maxRounds, maxMoves, sumRounds, sumMoves := 0, 0, 0, 0
	for i, c := range enumerate.Connected(7) {
		l := oracle.Run(core.Gatherer{}, c, opts)
		p := packed.Cases[i]
		if !p.Initial.Equal(c) || p.Status != l.Status || p.Rounds != l.Rounds || p.Moves != l.Moves {
			t.Fatalf("case %d diverges: packed %v/%d/%d oracle %v/%d/%d on %s",
				i, p.Status, p.Rounds, p.Moves, l.Status, l.Rounds, l.Moves, c.Key())
		}
		byStatus[l.Status]++
		if l.Status == sim.Gathered {
			maxRounds, maxMoves = max(maxRounds, l.Rounds), max(maxMoves, l.Moves)
			sumRounds += l.Rounds
			sumMoves += l.Moves
		}
	}
	if !reflect.DeepEqual(packed.ByStatus, byStatus) {
		t.Fatalf("status counts diverge: %v vs %v", packed.ByStatus, byStatus)
	}
	g := float64(byStatus[sim.Gathered])
	if packed.MaxRounds != maxRounds || packed.MeanRounds != float64(sumRounds)/g ||
		packed.MaxMoves != maxMoves || packed.MeanMoves != float64(sumMoves)/g {
		t.Fatal("aggregate round/move statistics diverge")
	}
}

// TestPackedRunMatchesLegacyOnEight extends the engine/oracle
// equivalence past the paper's size: on a sample of the 16689-pattern
// n=8 space (experiment E11), with the generalized minimum-diameter
// goal defaulting in, both loops must agree case for case — including
// the failure statuses the seven-robot algorithm produces out of its
// depth.
func TestPackedRunMatchesLegacyOnEight(t *testing.T) {
	initials := enumerate.Connected(8)
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true}
	for i := 0; i < len(initials); i += 167 { // ~100 sampled cases
		c := initials[i]
		p := sim.Run(core.Gatherer{}, c, opts)
		l := oracle.Run(core.Gatherer{}, c, opts)
		if p.Status != l.Status || p.Rounds != l.Rounds || p.Moves != l.Moves || !p.Final.Equal(l.Final) {
			t.Fatalf("n=8 %s: packed %v/%d/%d oracle %v/%d/%d",
				c.Key(), p.Status, p.Rounds, p.Moves, l.Status, l.Rounds, l.Moves)
		}
	}
}

// TestPackedRunMatchesLegacyOnFailures exercises the failure statuses
// (collision, disconnection, livelock, stall) through the engine and
// the oracle with the baselines, since the Gatherer sweep only ever
// gathers.
func TestPackedRunMatchesLegacyOnFailures(t *testing.T) {
	initials := enumerate.Connected(7)
	sort.Slice(initials, func(i, j int) bool { return initials[i].Compare(initials[j]) < 0 })
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true, MaxRounds: 500}
	for _, alg := range []core.Algorithm{core.GreedyEast{}, core.Idle{}} {
		for i := 0; i < len(initials); i += 37 { // sampled: ~100 cases per algorithm
			c := initials[i]
			p := sim.Run(alg, c, opts)
			l := oracle.Run(alg, c, opts)
			if p.Status != l.Status || p.Rounds != l.Rounds || p.Moves != l.Moves || !p.Final.Equal(l.Final) {
				t.Fatalf("%s on %s: packed %v/%d/%d oracle %v/%d/%d",
					alg.Name(), c.Key(), p.Status, p.Rounds, p.Moves, l.Status, l.Rounds, l.Moves)
			}
			if (p.Collision == nil) != (l.Collision == nil) {
				t.Fatalf("%s on %s: collision info presence diverges", alg.Name(), c.Key())
			}
			if p.Collision != nil && *p.Collision != *l.Collision {
				t.Fatalf("%s on %s: collision info diverges: %+v vs %+v",
					alg.Name(), c.Key(), *p.Collision, *l.Collision)
			}
		}
	}
}
