package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	l := tr.lane(false)
	// A root [0, 100) with children [10, 40) and [30, 60) that overlap,
	// plus one [90, 120) that runs past the root's end.
	root := l.newID()
	l.add(span{ID: root, Name: spanRep, Start: 0, End: 100})
	for _, c := range [][2]int64{{10, 40}, {30, 60}, {90, 120}} {
		l.add(span{ID: l.newID(), Parent: root, Name: spanSimRun, Start: c[0], End: c[1]})
	}
	spans := tr.spans()
	if spans[0].Self != 100-50-10 {
		t.Errorf("root self time %d, want 40", spans[0].Self)
	}
	for _, s := range spans[1:] {
		if s.Self != s.dur() {
			t.Errorf("leaf %d self %d, want its duration %d", s.ID, s.Self, s.dur())
		}
	}
	ls := summarise(spans)
	if ls.calls(spanSimRun) != 3 || ls.busyMS(spanSimRun) != 90/1e6 {
		t.Errorf("sim.Run: %v calls, %v ms busy", ls.calls(spanSimRun), ls.busyMS(spanSimRun))
	}
}

func TestUnattributedCountsWorkerGaps(t *testing.T) {
	tr := newTracer()
	w := tr.lane(true)
	w.open, w.close = 0, 100
	w.add(span{ID: w.newID(), Name: spanSimRun, Start: 0, End: 30})
	w.add(span{ID: w.newID(), Name: spanSimRun, Start: 20, End: 50})
	w.add(span{ID: w.newID(), Name: spanAbsorb, Start: 70, End: 80})
	// Spans on a lane that does no workload work do not count.
	other := tr.lane(false)
	other.add(span{ID: other.newID(), Name: spanRep, Start: 0, End: 100})
	if got := tr.unattributed(); got != 0.4 {
		t.Errorf("unattributed = %v, want 0.4 (gaps 50-70 and 80-100)", got)
	}
}

func TestNilLaneRecordsNothing(t *testing.T) {
	var tr *tracer
	l := tr.lane(true)
	p := l.begin()
	l.end(p, spanSimRun, 0, 1)
	l.done()
	if l != nil || p.id != 0 || l.since(p) != 0 {
		t.Error("an untraced run recorded a span")
	}
}

func TestSpansWriteAsJSONLines(t *testing.T) {
	tr := newTracer()
	l := tr.lane(true)
	p := l.begin()
	l.end(p, spanDecide, 0, 7)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("no span written")
	}
	var got map[string]any
	if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["name"] != "adversary.Decide" || got["trace"] != float64(7) {
		t.Errorf("span line %s", sc.Bytes())
	}
}
