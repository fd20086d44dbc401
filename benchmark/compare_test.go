package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := bound{Better: "lower", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 100, 95, 105}
	for _, c := range []struct {
		name           string
		parent, change []float64
		b              bound
		want           string
	}{
		{"faster", base, scaled(0.9, base), lower, "improved"},
		{"same", base, base, lower, "within-bound"},
		{"slower", base, scaled(1.1, base), lower, "regressed"},
		{"noisy parent", noisy, scaled(1.02, noisy), lower, "unresolved"},
		{"higher is better", base, scaled(1.1, base), bound{Better: "higher", Bound: 0.05}, "improved"},
		{"per-layer", base, scaled(1.1, base), bound{Better: "lower"}, "no-bound"},
	} {
		if got := judge(c.parent, c.change, c.b).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReadsRunOutput(t *testing.T) {
	dir := t.TempDir()
	def := `{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.05}], "per_layer": []}`
	config := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(config, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(i, failed int) string {
		wall := 1.0 + float64(i%3)/100
		if i%2 == 1 {
			wall *= 0.8 // every change run is faster
		}
		out := fmt.Sprintf("# workload fsync-n10-cold seed %d trace 0 seconds 10\nwall_s %v s\n"+
			`{"correct":true,"attempted":10,"failed":%d,"metrics":{"wall_s":{"value":%v,"unit":"s"}}}`+"\n", i, wall, failed, wall)
		path := filepath.Join(dir, fmt.Sprintf("run-%02d-%d.txt", i, failed))
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	args := []string{"-config", config}
	for i := 0; i < 2*minPairs; i++ {
		args = append(args, run(i, 0))
	}
	var out bytes.Buffer
	if err := compare(&out, args); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fsync-n10-cold") || !strings.Contains(out.String(), "improved") {
		t.Errorf("comparison:\n%s", out.String())
	}
	if err := compare(&out, args[:len(args)-2]); err == nil {
		t.Error("compared fewer than ten pairs")
	}
	// A faster change run that failed operations is not a result.
	failing := append([]string(nil), args...)
	failing[len(failing)-1] = run(2*minPairs-1, 1)
	if err := compare(&out, failing); err == nil || !strings.Contains(err.Error(), "failed 1 of 10") {
		t.Errorf("compared a run with a failed operation: %v", err)
	}
}
