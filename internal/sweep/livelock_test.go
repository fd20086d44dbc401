package sweep_test

import (
	"context"
	"testing"

	"repro/internal/memo"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// tally is one status's share of a sweep: runs, their summed rounds,
// and the longest run.
type tally struct{ runs, rounds, max int }

// TestFailureRoundsPinned pins when the run loop detects each failure,
// not just how often: per status, the number of runs, their summed
// rounds and the longest, over Stream's cases with the outcome store
// on and off. Both sides share the cycle index, so a change to repeat
// detection that moved a livelock's round would pass a store-on versus
// store-off comparison; it cannot pass these figures. They are the
// E11 (FSYNC n = 8) and E12 (round-robin n = 7, 8) breakdowns.
func TestFailureRoundsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		sched func(int64) sched.Scheduler
		want  map[sim.Status]tally
	}{
		{"cent-7", 7, sweep.CENT, map[sim.Status]tally{
			sim.Gathered: {3486, 42337, 29},
			sim.Livelock: {166, 1450, 15},
		}},
		{"cent-8", 8, sweep.CENT, map[sim.Status]tally{
			sim.Gathered: {12781, 185453, 38},
			sim.Livelock: {3486, 45766, 26},
			sim.Stalled:  {422, 2246, 16},
		}},
		{"fsync-8", 8, nil, map[sim.Status]tally{
			sim.Gathered:     {15364, 118126, 17},
			sim.Livelock:     {671, 3851, 12},
			sim.Collision:    {440, 2196, 12},
			sim.Stalled:      {145, 411, 6},
			sim.Disconnected: {69, 198, 6},
		}},
	} {
		for _, store := range []bool{false, true} {
			spec := sweep.Spec{N: tc.n, Scheduler: tc.sched, Workers: 2}
			if store {
				spec.OutcomeMemo = memo.NewOutcomes()
			}
			got := map[sim.Status]tally{}
			if _, err := sweep.Stream(context.Background(), spec, func(c sweep.CaseResult) error {
				s := got[c.Status]
				s.runs++
				s.rounds += c.Rounds
				s.max = max(s.max, c.Rounds)
				got[c.Status] = s
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Errorf("%s store=%v: statuses %v, want %v", tc.name, store, got, tc.want)
			}
			for status, w := range tc.want {
				if got[status] != w {
					t.Errorf("%s store=%v: %v runs/rounds/max %v, want %v", tc.name, store, status, got[status], w)
				}
			}
		}
	}
}
