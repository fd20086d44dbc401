package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/memo"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestFinalDoesNotAliasInitial runs configurations that are windows
// into a caller's slab (the way enumerate materializes pattern lists)
// and end on their initial state — a round-0 stall, and a livelock
// whose cycle passes through the initial state — through both entry
// points of the run loop, with and without an outcome store (cold, then
// warm: a splice). The Result's Final, and the Final the store keeps
// for the initial pattern, must be copies, or holding either would
// keep the whole slab alive.
func TestFinalDoesNotAliasInitial(t *testing.T) {
	for _, tc := range []struct {
		alg   core.Algorithm
		nodes []grid.Coord
	}{
		{core.Idle{}, config.Line(grid.Origin, grid.E, 7).Nodes()},
		{core.Gatherer{}, config.Line(grid.Origin, grid.SE, 3).Nodes()},
	} {
		slab := append([]grid.Coord(nil), tc.nodes...)
		initial := config.FromSortedNodes(slab)
		key, _ := config.Key128Nodes(slab)
		for _, e := range []struct {
			name string
			run  func(config.Config, sim.Options) sim.Result
		}{
			{"sim.Run", func(c config.Config, o sim.Options) sim.Result { return sim.Run(tc.alg, c, o) }},
			{"sched.Run(FSYNC)", func(c config.Config, o sim.Options) sim.Result { return sched.Run(tc.alg, c, sched.FSYNC{}, o) }},
		} {
			st := memo.NewOutcomes()
			for _, opts := range []sim.Options{
				{},
				{DetectCycles: true, StopOnDisconnect: true},
				{DetectCycles: true, StopOnDisconnect: true, Outcomes: st},
				{DetectCycles: true, StopOnDisconnect: true, Outcomes: st},
			} {
				label := fmt.Sprintf("%s %s from %s (store %v)", tc.alg.Name(), e.name, initial.Key(), opts.Outcomes != nil)
				want := e.run(config.New(tc.nodes...), sim.Options{DetectCycles: true, StopOnDisconnect: true})
				if want.Status != sim.Stalled && want.Status != sim.Livelock {
					t.Fatalf("%s: %v, want a stall or a livelock", label, want.Status)
				}
				res := e.run(initial, opts)
				out, stored := st.Load(key)
				if opts.Outcomes != nil && !stored {
					t.Fatalf("%s: the initial state's outcome was not published", label)
				}
				slab[0].Q += 100
				if got := res.Final.Key(); got != want.Final.Key() {
					t.Errorf("%s: Final changed with the caller's slab: %s, want %s", label, got, want.Final.Key())
				}
				if got := out.Final.Key(); stored && got != want.Final.Key() {
					t.Errorf("%s: the stored Final changed with the caller's slab: %s, want %s", label, got, want.Final.Key())
				}
				slab[0].Q -= 100
			}
		}
	}
}

// TestRunBeyondStackScratch checks runs whose robot count exceeds the
// stack-held round scratch against the oracle.
func TestRunBeyondStackScratch(t *testing.T) {
	opts := sim.Options{DetectCycles: true, StopOnDisconnect: true}
	for _, n := range []int{16, 17, 24} {
		initial := config.Line(grid.Origin, grid.E, n)
		got, want := sim.Run(core.Gatherer{}, initial, opts), oracle.Run(core.Gatherer{}, initial, opts)
		if got.Status != want.Status || got.Rounds != want.Rounds || got.Moves != want.Moves || got.Final.Key() != want.Final.Key() {
			t.Errorf("n = %d: %v/%d rounds/%d moves, final %s; oracle %v/%d/%d, final %s",
				n, got.Status, got.Rounds, got.Moves, got.Final.Key(), want.Status, want.Rounds, want.Moves, want.Final.Key())
		}
	}
}

// TestRunPastKeyEnvelope runs starts with no exact config.Key128 — a
// line one robot past config.MaxKeyNodes, and a range-2 line whose
// spread is 16 — through both entry points, once with a fresh outcome
// store and once without. Such states are not memoized: each run must
// equal the oracle's, and the store must stay empty.
func TestRunPastKeyEnvelope(t *testing.T) {
	sparse := make([]grid.Coord, 9)
	for i := range sparse {
		sparse[i] = grid.Coord{Q: 2 * i}
	}
	alg := core.Gatherer{}
	for _, tc := range []struct {
		name    string
		initial config.Config
		a       sim.Activation // nil: FSYNC
	}{
		{"line15/fsync", config.Line(grid.Origin, grid.E, config.MaxKeyNodes+1), nil},
		{"line15/round-robin", config.Line(grid.Origin, grid.E, config.MaxKeyNodes+1), sched.RoundRobin{}},
		{"sparse9/fsync", config.New(sparse...), nil},
		{"sparse9/round-robin", config.New(sparse...), sched.RoundRobin{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, exact := tc.initial.Key128(); exact {
				t.Fatalf("%s has an exact key", tc.initial.Key())
			}
			opts := sim.Options{DetectCycles: true, StopOnDisconnect: true}
			want := oracle.Run(alg, tc.initial, opts)
			if tc.a != nil {
				want = oracle.RunActivated(alg, tc.initial, tc.a, opts)
			}
			st := memo.NewOutcomes()
			for _, o := range []*memo.Outcomes{st, nil} {
				opts.Outcomes = o
				got := sim.RunActivated(alg, tc.initial, tc.a, opts)
				if tc.a == nil {
					got = sim.Run(alg, tc.initial, opts)
				}
				if got.Status != want.Status || got.Rounds != want.Rounds || got.Moves != want.Moves || got.Final.Key() != want.Final.Key() {
					t.Errorf("store %v: %v/%d rounds/%d moves, final %s; oracle %v/%d/%d, final %s", o != nil,
						got.Status, got.Rounds, got.Moves, got.Final.Key(), want.Status, want.Rounds, want.Moves, want.Final.Key())
				}
			}
			if n := st.Created(); n != 0 {
				t.Errorf("store holds %d outcomes, want none", n)
			}
		})
	}
}
