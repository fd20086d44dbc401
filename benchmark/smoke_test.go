package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSmoke runs every workload at reduced size — n ≤ 8 sweeps, one
// timed rep, sub-second windows — untraced and traced, with every
// correctness check the full benchmark makes. A traced sweep whose
// Report differs by one byte from the untraced one fails its run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				e := smokeEnv(t, traced)
				o, err := w.run(e)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := writeResult(&out, traced, o); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %s", lines[len(lines)-1])
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || (!traced && m.Value <= 0) {
						t.Errorf("%s = %+v", d.name, m)
					}
				}
				if traced {
					if res.Metrics["trace.overhead_ratio"].Value <= 0 {
						t.Error("no tracing overhead measured")
					}
					if fi, err := os.Stat(e.spans); err != nil || fi.Size() == 0 {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

func smokeEnv(t *testing.T, traced bool) *env {
	e := &env{
		ctx:    context.Background(),
		seed:   3,
		window: 300 * time.Millisecond,
		trace:  traced,
		work:   t.TempDir(),
		size:   smokeSize,
	}
	if traced {
		e.spans = filepath.Join(e.work, "spans.jsonl")
	}
	return e
}

// TestFailedRequestFailsRun checks that a server answering one request
// in a hundred with an error fails a verdict-serve run, traced or not,
// rather than reporting the faster times of the requests it skipped.
func TestFailedRequestFailsRun(t *testing.T) {
	broken := func(e *env, l *lane) (*verdictBench, error) {
		v, err := setupVerdict(e, l)
		if err != nil {
			return nil, err
		}
		healthy := v.handler
		var n atomic.Int64
		v.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1)%100 == 0 {
				http.Error(w, "broken", http.StatusInternalServerError)
				return
			}
			healthy.ServeHTTP(w, r)
		})
		return v, nil
	}
	for _, traced := range []bool{false, true} {
		o, err := runVerdict(broken)(smokeEnv(t, traced))
		if err == nil || !strings.Contains(err.Error(), "500 Internal Server Error") {
			t.Errorf("trace=%v: run with failing requests gave %+v, %v", traced, o, err)
		}
	}
}

// TestDefinitionMatchesCode checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestDefinitionMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		definition
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []bound
		code []metricDef
	}{{def.EndToEnd, endToEnd}, {def.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.code))
		}
		for i, b := range c.json {
			if b.Name != c.code[i].name || b.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, b.Name, b.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
