package adversary

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestHexagonSafe: the gathered hexagon is a terminal goal state — no
// robot wants to move, so no adversary can do anything.
func TestHexagonSafe(t *testing.T) {
	adv := New(Options{})
	v, err := adv.Decide(config.Hexagon(grid.Origin))
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != Safe || v.Witness != nil {
		t.Fatalf("hexagon verdict %v (witness %v), want safe", v.Kind, v.Witness)
	}
}

// TestLineDefeatable: the 7-robot east line — gathered by FSYNC in a
// handful of rounds — falls to the adversary, and the witness replays
// through the ordinary scheduler machinery as a confirmed
// non-gathering run.
func TestLineDefeatable(t *testing.T) {
	adv := New(Options{})
	line := config.Line(grid.Origin, grid.E, 7)
	v, err := adv.Decide(line)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != Defeatable {
		t.Fatalf("east line verdict %v, want defeatable", v.Kind)
	}
	if v.Witness == nil || v.Depth != v.Witness.Depth() || v.Depth == 0 {
		t.Fatalf("bad witness bookkeeping: depth %d, witness %+v", v.Depth, v.Witness)
	}
	// Replay once more by hand through sched.Run, as any caller would.
	res := sched.Run(core.Gatherer{}, line, v.Witness.Scheduler(), sim.Options{
		MaxRounds: v.Depth + 50, DetectCycles: true, StopOnDisconnect: true,
	})
	if res.Status == sim.Gathered {
		t.Fatalf("witness schedule gathered on manual replay")
	}
}

// TestExactDefeatableSets pins the exact defeatable counts (the E13
// result at n = 7, plus the smaller spaces): every defeat's witness is
// re-simulated and confirmed inside Decide.
func TestExactDefeatableSets(t *testing.T) {
	want := map[int]struct{ defeatable, safe int }{
		5: {186, 0},
		6: {721, 93},
		7: {3228, 424},
	}
	for n, w := range want {
		adv := New(Options{})
		defeatable, safeN := 0, 0
		for _, c := range enumerate.Connected(n) {
			v, err := adv.Decide(c)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, c.Key(), err)
			}
			switch v.Kind {
			case Defeatable:
				defeatable++
			case Safe:
				safeN++
			default:
				t.Fatalf("n=%d %s: unexpected verdict %v", n, c.Key(), v.Kind)
			}
		}
		if defeatable != w.defeatable || safeN != w.safe {
			t.Errorf("n=%d: %d defeatable / %d safe, want %d / %d",
				n, defeatable, safeN, w.defeatable, w.safe)
		}
	}
}

// TestCENTDefeatedAreSolverDefeatable: the centralized round-robin
// adversary of E12 defeats exactly 166 of the 3652 patterns; every one
// of them must be solver-defeatable (CENT's effective steps are
// singleton mover activations — a strict subset of the game's moves),
// with a witness Decide has replayed and confirmed.
func TestCENTDefeatedAreSolverDefeatable(t *testing.T) {
	var centDefeated []config.Config
	var cycles config.PatternSet
	for _, c := range enumerate.Connected(7) {
		res := sched.Run(core.Gatherer{}, c, sched.RoundRobin{}, sim.Options{
			MaxRounds: 2000, DetectCycles: true, StopOnDisconnect: true, CycleSet: &cycles,
		})
		if res.Status != sim.Gathered {
			centDefeated = append(centDefeated, c)
		}
	}
	if len(centDefeated) != 166 {
		t.Fatalf("CENT defeats %d patterns, want the E12 lower bound 166", len(centDefeated))
	}
	adv := New(Options{})
	for _, c := range centDefeated {
		v, err := adv.Decide(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Key(), err)
		}
		if v.Kind != Defeatable {
			t.Fatalf("CENT defeats %s but the solver says %v", c.Key(), v.Kind)
		}
		if v.Witness == nil {
			t.Fatalf("%s: defeatable without witness", c.Key())
		}
	}
}

// TestRolloutDefeatsAreSolverDefeatable cross-checks the solver
// against brute-force random-subset rollouts on the full n = 5 space:
// any rollout that provably fails (livelock, collision, disconnection,
// or a stall certified by recomputing that no robot wants to move)
// must be a pattern the solver calls defeatable.
func TestRolloutDefeatsAreSolverDefeatable(t *testing.T) {
	adv := New(Options{})
	probe := NewSolver(core.Gatherer{}, nil, 0) // movers recomputation for stall certification
	certified := 0
	for _, c := range enumerate.Connected(5) {
		for seed := int64(1); seed <= 8; seed++ {
			res := sched.Run(core.Gatherer{}, c, sched.NewRandomSubset(seed), sim.Options{
				MaxRounds: 2000, DetectCycles: true, StopOnDisconnect: true,
			})
			proven := false
			switch res.Status {
			case sim.Livelock, sim.Collision, sim.Disconnected:
				proven = true
			case sim.Stalled:
				// sched.Run may declare a stall off an idle streak that
				// merely never activated a mover; certify by recomputing.
				nodes := res.Final.Nodes()
				var moves [MaxRobots]core.Move
				proven = probe.expand(nodes, moves[:len(nodes)]) == 0
			}
			if !proven {
				continue
			}
			certified++
			v, err := adv.Decide(c)
			if err != nil {
				t.Fatal(err)
			}
			if v.Kind != Defeatable {
				t.Fatalf("%s: rollout seed %d proves a defeat (%v) but the solver says %v",
					c.Key(), seed, res.Status, v.Kind)
			}
		}
	}
	if certified == 0 {
		t.Fatal("no rollout produced a certified defeat; the cross-check checked nothing")
	}
}

// TestSafePatternsGatherUnderRollouts is the other direction of the
// cross-check: from a solver-safe pattern every play reaches gathering
// (the reachable game graph is a DAG into the goal), so seeded
// random-subset rollouts must gather.
func TestSafePatternsGatherUnderRollouts(t *testing.T) {
	adv := New(Options{})
	checked := 0
	for i, c := range enumerate.Connected(7) {
		if i%25 != 0 { // sample: the full safe set re-checks nothing new
			continue
		}
		v, err := adv.Decide(c)
		if err != nil {
			t.Fatal(err)
		}
		if v.Kind != Safe {
			continue
		}
		checked++
		for seed := int64(1); seed <= 4; seed++ {
			res := sched.Run(core.Gatherer{}, c, sched.NewRandomSubset(seed), sim.Options{
				MaxRounds: 10000, DetectCycles: true, StopOnDisconnect: true,
			})
			if res.Status != sim.Gathered {
				t.Fatalf("solver-safe %s failed a rollout: seed %d, %v", c.Key(), seed, res.Status)
			}
		}
	}
	if checked == 0 {
		t.Fatal("sample contained no safe patterns; widen it")
	}
}

// TestDecideRejectsOutOfDomain: the solver's game is defined on
// connected patterns of at most MaxRobots robots.
func TestDecideRejectsOutOfDomain(t *testing.T) {
	adv := New(Options{})
	disconnected := config.New(grid.Coord{}, grid.Coord{Q: 5, R: 5})
	if _, err := adv.Decide(disconnected); err == nil {
		t.Error("disconnected initial accepted")
	}
	wide := config.Line(grid.Origin, grid.E, MaxRobots+1)
	if _, err := adv.Decide(wide); err == nil {
		t.Error("pattern past MaxRobots accepted")
	}
}

// TestWitnessSchedulerTail: after the prefix, a cycle witness loops
// its cycle and an acyclic witness falls back to full activation.
func TestWitnessSchedulerTail(t *testing.T) {
	w := &Witness{
		Prefix: [][]int{{0}, {1}},
		Cycle:  [][]int{{2}, {3, 4}},
		Kind:   KindCycle,
	}
	s := w.Scheduler()
	wantRounds := [][]int{{0}, {1}, {2}, {3, 4}, {2}, {3, 4}}
	for round, want := range wantRounds {
		got := s.Select(7, round)
		if len(got) != len(want) {
			t.Fatalf("round %d: %v, want %v", round, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: %v, want %v", round, got, want)
			}
		}
	}
	stall := &Witness{Kind: KindStall}
	if got := stall.Scheduler().Select(7, 0); len(got) != 7 {
		t.Fatalf("stall tail activated %d of 7", len(got))
	}
}

// TestSolverMemoSharing: deciding the same pattern twice explores no
// new states the second time, and a second pattern reuses the shared
// game graph.
func TestSolverMemoSharing(t *testing.T) {
	adv := New(Options{})
	line := config.Line(grid.Origin, grid.E, 7)
	v1, err := adv.Decide(line)
	if err != nil {
		t.Fatal(err)
	}
	if v1.States == 0 {
		t.Fatal("first decision explored no states")
	}
	v2, err := adv.Decide(line)
	if err != nil {
		t.Fatal(err)
	}
	if v2.States != 0 {
		t.Fatalf("second decision explored %d new states, want 0", v2.States)
	}
}

// TestForkSharesSolver: a fork decides with the same shared game graph
// — a pattern the parent already decided costs the fork zero new
// states — and produces the identical verdict and witness.
func TestForkSharesSolver(t *testing.T) {
	parent := New(Options{})
	line := config.Line(grid.Origin, grid.E, 7)
	v1, err := parent.Decide(line)
	if err != nil {
		t.Fatal(err)
	}
	fork := parent.Fork()
	v2, err := fork.Decide(line)
	if err != nil {
		t.Fatal(err)
	}
	if v2.States != 0 {
		t.Fatalf("fork re-explored %d states", v2.States)
	}
	if v1.Kind != v2.Kind || v1.Depth != v2.Depth || v1.ReplayStatus != v2.ReplayStatus {
		t.Fatalf("fork verdict diverges: %+v vs %+v", v1, v2)
	}
	if parent.StatesExplored() != fork.StatesExplored() {
		t.Fatal("fork does not share the solver's game graph")
	}
}

// TestConcurrentSolverRace hammers one shared solver from many
// goroutines over interleaved slices of the full n = 5 and n = 6
// spaces (run under -race in CI): every concurrent verdict must match
// the sequential reference, and the shared memo must end up with a
// consistent state count whatever the interleaving.
func TestConcurrentSolverRace(t *testing.T) {
	for _, n := range []int{5, 6} {
		patterns := enumerate.Connected(n)
		// Sequential reference.
		ref := New(Options{})
		want := make([]VerdictKind, len(patterns))
		for i, c := range patterns {
			v, err := ref.Decide(c)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = v.Kind
		}
		shared := New(Options{})
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(patterns); i += workers {
					v, err := shared.Decide(patterns[i])
					if err != nil {
						errs <- err
						return
					}
					if v.Kind != want[i] {
						errs <- fmt.Errorf("n=%d pattern %d: concurrent %v, sequential %v", n, i, v.Kind, want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// The colored graphs agree in size: both decided the whole space.
		if shared.StatesExplored() != ref.StatesExplored() {
			t.Fatalf("n=%d: concurrent graph has %d states, sequential %d",
				n, shared.StatesExplored(), ref.StatesExplored())
		}
	}
}

// TestConcurrentWitnessesDeterministic: witnesses read back from a
// concurrently-colored game graph equal the sequential ones — the
// stored winning choices are interleaving-independent.
func TestConcurrentWitnessesDeterministic(t *testing.T) {
	patterns := enumerate.Connected(5)
	ref := New(Options{})
	shared := New(Options{})
	const workers = 4
	var wg sync.WaitGroup
	got := make([]*Witness, len(patterns))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(patterns); i += workers {
				if v, err := shared.Decide(patterns[i]); err == nil {
					got[i] = v.Witness
				}
			}
		}(w)
	}
	wg.Wait()
	for i, c := range patterns {
		v, err := ref.Decide(c)
		if err != nil {
			t.Fatal(err)
		}
		if (v.Witness == nil) != (got[i] == nil) {
			t.Fatalf("pattern %d: witness presence diverges", i)
		}
		if v.Witness == nil {
			continue
		}
		if !reflect.DeepEqual(v.Witness, got[i]) {
			t.Fatalf("pattern %d (%s): concurrent witness %+v, sequential %+v", i, c.Key(), got[i], v.Witness)
		}
	}
}
