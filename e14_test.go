package repro

// TestE14_N8AdversaryMap pins experiment E14 — the exact SSYNC
// defeasibility map of the full n = 8 space — end to end: 16689
// connected patterns decided over the shared concurrent solver memo,
// the verdict partition, the witness-kind split (forced collisions
// reappear at n = 8; at n = 7 every defeat was a livelock), the
// maximum strategy depth, the safe-set diameter distribution, and the
// cross with the E11 FSYNC classes (every FSYNC failure is trivially
// defeatable — full activation is an adversary strategy — and the safe
// set is a 277-pattern subset of the 15364 FSYNC-gathered patterns).
//
// The FSYNC cross-map and the full solve take several seconds, so the
// test is guarded behind ADV_HEAVY=1 (like the large enumerations
// behind ENUM_HEAVY) and skipped in routine CI:
//
//	ADV_HEAVY=1 go test -run TestE14 .

import (
	"context"
	"os"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func TestE14_N8AdversaryMap(t *testing.T) {
	if os.Getenv("ADV_HEAVY") == "" {
		t.Skip("full exact n = 8 adversary map; set ADV_HEAVY=1 to run")
	}

	// FSYNC statuses first (the E11 map), for the cross-table.
	fsync := make(map[string]sim.Status)
	var cycles config.PatternSet
	for _, c := range enumerate.Connected(8) {
		res := sim.Run(core.Gatherer{}, c, sim.Options{
			DetectCycles: true, StopOnDisconnect: true, CycleSet: &cycles,
		})
		fsync[c.Key()] = res.Status
	}

	safeByDiameter := map[int]int{}
	rep, err := sweep.Stream(context.Background(), sweep.Spec{
		N:         8,
		Workers:   runtime.GOMAXPROCS(0),
		Adversary: &adversary.Options{},
	}, func(c sweep.CaseResult) error {
		switch c.Verdict.Kind {
		case adversary.Safe:
			safeByDiameter[c.Initial.Diameter()]++
			if s := fsync[c.Initial.Key()]; s != sim.Gathered {
				t.Errorf("safe pattern %s fails under FSYNC (%v) — impossible: FSYNC is an adversary strategy",
					c.Initial.Key(), s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Defeatable != 16412 || rep.SafePatterns != 277 || rep.ByMethod["solver"] != 16689 {
		t.Errorf("verdict partition %d/%d (%v), want 16412/277, all by the solver",
			rep.Defeatable, rep.SafePatterns, rep.ByMethod)
	}
	// The witness-kind split of the solver's witnesses, via the status
	// mapping: forced livelocks dominate, but — unlike n = 7, where
	// every defeat was a cycle — the adversary also forces collisions,
	// stalls and disconnections. The split is a property of the
	// witnesses (the solver stores the first defeating activation in a
	// fixed order), not of the partition.
	wantStatus := map[sim.Status]int{
		sim.Gathered:     277,
		sim.Livelock:     14459,
		sim.Stalled:      201,
		sim.Collision:    1654,
		sim.Disconnected: 98,
	}
	for s, want := range wantStatus {
		if got := rep.ByStatus[s]; got != want {
			t.Errorf("status %v: %d patterns, want %d", s, got, want)
		}
	}
	if rep.MaxWitnessDepth != 22 {
		t.Errorf("max strategy depth %d, want 22", rep.MaxWitnessDepth)
	}
	// The safe set concentrates at small diameter, one straggler at 6
	// (n = 7's safe set had none past diameter 5).
	wantSafe := map[int]int{3: 89, 4: 151, 5: 36, 6: 1}
	for d, want := range wantSafe {
		if safeByDiameter[d] != want {
			t.Errorf("safe diameter %d: %d patterns, want %d", d, safeByDiameter[d], want)
		}
	}
	if len(safeByDiameter) != len(wantSafe) {
		t.Errorf("safe diameter histogram %v, want %v", safeByDiameter, wantSafe)
	}
}
