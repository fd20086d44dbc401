package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

func mustParse(t testing.TB, key string) config.Config {
	t.Helper()
	cfg, err := config.ParseKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

const (
	hexagonKey = "0,0;1,0;2,0;0,1;1,1;2,1;1,2" // the n = 7 goal pattern
	lineN9Key  = "0,0;1,0;2,0;3,0;4,0;5,0;6,0;7,0;8,0"
)

func newService(t testing.TB, opts Options) *Service {
	t.Helper()
	s, err := NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVerdictTableHit: a covered pattern under the default algorithm is
// answered from the table with the pinned hexagon verdict.
func TestVerdictTableHit(t *testing.T) {
	s := newService(t, Options{})
	rec, src, err := s.Verdict(context.Background(), "", mustParse(t, hexagonKey))
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceTable {
		t.Fatalf("source = %v, want table", src)
	}
	if rec.FSYNCStatus() != sim.Gathered || rec.Robust() != TableSchedules || rec.Adversary() != AdvSafe {
		t.Fatalf("hexagon verdict = %v/%d/%v, want gathered/%d/safe",
			rec.FSYNCStatus(), rec.Robust(), rec.Adversary(), TableSchedules)
	}
	if s.SolveCount("") != 0 {
		t.Fatal("table hit ran the engines")
	}
}

// TestVerdictHitPathZeroAlloc is the acceptance gate: the covered
// lookup path performs zero allocations per request.
func TestVerdictHitPathZeroAlloc(t *testing.T) {
	s := newService(t, Options{})
	cfg := mustParse(t, hexagonKey)
	ctx := context.Background()
	if _, _, err := s.Verdict(ctx, "", cfg); err != nil { // build the lazy table map outside the measurement
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, src, err := s.Verdict(ctx, "", cfg); err != nil || src != SourceTable {
			t.Fatalf("hit path degraded: src=%v err=%v", src, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f per request, want 0", allocs)
	}
}

// TestVerdictMissThenCached: a novel pattern is solved live once, then
// served from the flight store.
func TestVerdictMissThenCached(t *testing.T) {
	s := newService(t, Options{AdvMaxN: 8}) // keep the n = 9 solve scheduler-only
	cfg := mustParse(t, lineN9Key)
	rec, src, err := s.Verdict(context.Background(), "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceSolved {
		t.Fatalf("first query source = %v, want solved", src)
	}
	if rec.FSYNCStatus() != sim.Stalled {
		t.Fatalf("n=9 line FSYNC = %v, want stalled", rec.FSYNCStatus())
	}
	if rec.Adversary() != AdvUndecided {
		t.Fatalf("n=9 with AdvMaxN=8 decided as %v, want undecided", rec.Adversary())
	}
	rec2, src2, err := s.Verdict(context.Background(), "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != SourceCached || rec2 != rec {
		t.Fatalf("repeat query = (%v, %#x), want (cached, %#x)", src2, uint64(rec2), uint64(rec))
	}
	if got := s.SolveCount(""); got != 1 {
		t.Fatalf("solves = %d, want 1", got)
	}
}

// TestVerdictSingleFlightBurst is the acceptance gate for the miss
// path: a concurrent burst of identical novel-pattern requests performs
// exactly one engine execution — single-flight in mechanism. Run under
// -race by the CI race job.
func TestVerdictSingleFlightBurst(t *testing.T) {
	s := newService(t, Options{}) // AdvMaxN 9: the burst exercises the full solve (sim + sched + adversary)
	cfg := mustParse(t, lineN9Key)
	const burst = 32
	var (
		start  = make(chan struct{})
		wg     sync.WaitGroup
		mu     sync.Mutex
		bySrc  = map[Source]int{}
		record Record
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec, src, err := s.Verdict(context.Background(), "", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			bySrc[src]++
			record = rec
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if got := s.SolveCount(""); got != 1 {
		t.Fatalf("%d concurrent identical requests performed %d solves, want exactly 1", burst, got)
	}
	if bySrc[SourceSolved] != 1 || bySrc[SourceCached] != burst-1 || bySrc[SourceTable] != 0 {
		t.Fatalf("source split %v, want 1 solved / %d cached", bySrc, burst-1)
	}
	if record.Adversary() != AdvDefeatable {
		t.Fatalf("n=9 line adversary verdict = %v, want defeatable", record.Adversary())
	}
}

// TestVerdictNonDefaultAlgBypassesTable: the table speaks only for the
// default algorithm; other algorithms always go live, even on covered
// patterns.
func TestVerdictNonDefaultAlgBypassesTable(t *testing.T) {
	s := newService(t, Options{})
	rec, src, err := s.Verdict(context.Background(), "three", mustParse(t, hexagonKey))
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceSolved {
		t.Fatalf("alg=three source = %v, want solved", src)
	}
	if got := s.SolveCount("three"); got != 1 {
		t.Fatalf("three-engine solves = %d, want 1", got)
	}
	// The three-robot baseline cannot gather seven robots — the live
	// verdict must differ from the table's full-algorithm one.
	if rec.FSYNCStatus() == sim.Gathered {
		t.Fatal("three allegedly gathers the 7-robot pattern the table pins for full")
	}
}

// TestVerdictRelaxedSpaceMiss: a disconnected start is outside the
// table (and the safety game); it solves live with verdict undecided.
func TestVerdictRelaxedSpaceMiss(t *testing.T) {
	s := newService(t, Options{})
	rec, src, err := s.Verdict(context.Background(), "", mustParse(t, "0,0;5,0"))
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceSolved {
		t.Fatalf("source = %v, want solved", src)
	}
	// Two mutually invisible robots never gather (the full algorithm
	// idles them: stalled); the exact claim is that the safety game
	// makes no statement about a disconnected start.
	if rec.FSYNCStatus() == sim.Gathered {
		t.Fatalf("disconnected start FSYNC = %v", rec.FSYNCStatus())
	}
	if rec.Adversary() != AdvUndecided {
		t.Fatalf("disconnected start adversary = %v, want undecided", rec.Adversary())
	}
}

// TestVerdictErrors: unknown algorithms and envelope violations are
// typed client errors, and NewService validates its default.
func TestVerdictErrors(t *testing.T) {
	s := newService(t, Options{})
	if _, _, err := s.Verdict(context.Background(), "nope", mustParse(t, lineN9Key)); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("unknown alg error = %v, want ErrUnknownAlgorithm", err)
	}
	key := "0,0" // MaxQueryRobots+1 collinear robots: one past the envelope
	for q := 1; q <= MaxQueryRobots; q++ {
		key += ";" + itoa(q) + ",0"
	}
	if _, _, err := s.Verdict(context.Background(), "", mustParse(t, key)); !errors.Is(err, ErrOutsideEnvelope) {
		t.Fatalf("%d robots: error %v, want ErrOutsideEnvelope", MaxQueryRobots+1, err)
	}
	// Two robots 16 apart fit the robot bound but not the key's spread.
	if _, _, err := s.Verdict(context.Background(), "", mustParse(t, "0,0;16,0")); !errors.Is(err, ErrOutsideEnvelope) {
		t.Fatalf("spread-16 pattern: error %v, want ErrOutsideEnvelope", err)
	}
	if _, err := NewService(Options{DefaultAlg: "nope"}); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("NewService accepted unknown default algorithm: %v", err)
	}
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}
