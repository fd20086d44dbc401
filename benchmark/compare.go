package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// winShare is the share of pairs a change must win to claim a gain.
const winShare = 0.9

// definition is the part of BENCHMARK.json a comparison reads.
type definition struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compare implements the paired comparison of a change against its
// parent: given at least ten pairs of result files, parent first in each
// pair, it prints for every workload and metric each side's median and
// quartiles, the share of pairs the change won, and a verdict.
//
//   - improved: the change won at least 90% of the pairs, ties counting
//     for neither, and the medians differ by more than the parent's
//     quartile spread;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's own spread is wider than the bound and
//     not every change run beat every parent run;
//   - within-bound otherwise; per-layer metrics have no bound and read
//     "no-bound" unless improved.
//
// A result file is the standard output of one or more runs; a
// "# workload NAME" line names the workload of the result line after
// it. A result that is not correct or that counts a failed operation
// ends the comparison with an error.
func compare(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	config := fs.String("config", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) < 2*minPairs || len(files)%2 != 0 {
		return fmt.Errorf("need at least %d parent/change pairs of result files, alternating, got %d files", minPairs, len(files))
	}
	data, err := os.ReadFile(*config)
	if err != nil {
		return err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", *config, err)
	}
	bounds := map[string]bound{}
	for _, b := range append(def.EndToEnd, def.PerLayer...) {
		bounds[b.Name] = b
	}

	runs := make([]map[string]result, len(files))
	for i, f := range files {
		if runs[i], err = readResults(f); err != nil {
			return err
		}
	}
	var names []string
	for wl := range runs[0] {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-30s %-24s %-24s %8s %5s  %s\n", "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "change", "wins", "verdict")
	for _, wl := range names {
		var metrics []string
		for m := range runs[0][wl].Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			var parent, change []float64
			for p := 0; p < len(runs); p += 2 {
				pv, pok := runs[p][wl].Metrics[m]
				cv, cok := runs[p+1][wl].Metrics[m]
				if pok && cok {
					parent, change = append(parent, pv.Value), append(change, cv.Value)
				}
			}
			if len(parent) < minPairs {
				return fmt.Errorf("%s %s: only %d complete pairs", wl, m, len(parent))
			}
			c := judge(parent, change, bounds[m])
			fmt.Fprintf(w, "%-16s %-30s %-24s %-24s %+7.2f%% %5.2f  %s\n", wl, m,
				fmt.Sprintf("%.4g [%.4g,%.4g]", c.parent[1], c.parent[0], c.parent[2]),
				fmt.Sprintf("%.4g [%.4g,%.4g]", c.change[1], c.change[0], c.change[2]),
				100*c.delta, c.wins, c.verdict)
		}
	}
	return nil
}

// comparison is one metric's paired result.
type comparison struct {
	parent, change [3]float64 // q1, median, q3
	// delta is the change's median relative to the parent's, signed
	// so that positive is worse.
	delta   float64
	wins    float64
	verdict string
}

// judge applies the rules compare documents to one metric's pairs.
func judge(parent, change []float64, b bound) comparison {
	var c comparison
	c.parent[0], c.parent[1], c.parent[2], _ = quartiles(parent)
	c.change[0], c.change[1], c.change[2], _ = quartiles(change)
	sign := 1.0 // lower is better
	if b.Better == "higher" {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*x < sign*y }
	won := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			won++
		}
	}
	c.wins = float64(won) / float64(len(parent))
	c.delta = sign * ratio(c.change[1]-c.parent[1], c.parent[1])
	allBetter := true
	for _, cv := range change {
		for _, pv := range parent {
			allBetter = allBetter && better(cv, pv)
		}
	}
	parentIQR := c.parent[2] - c.parent[0]
	switch {
	case c.wins >= winShare && better(c.change[1], c.parent[1]) && abs(c.change[1]-c.parent[1]) > parentIQR:
		c.verdict = "improved"
	case b.Bound == 0:
		c.verdict = "no-bound"
	case c.delta > b.Bound:
		c.verdict = "regressed"
	case spread(parent) > b.Bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "within-bound"
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// readResults parses the standard output of benchmark runs into each
// workload's last result.
func readResults(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]result{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# workload "); ok {
			workload, _, _ = strings.Cut(rest, " ")
			continue
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if workload == "" {
			return nil, fmt.Errorf("%s: result line before any \"# workload\" line", path)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: %s run was not correct", path, workload)
		}
		// A side whose operations fail may look faster for not doing
		// them, so its timings do not count.
		if r.Failed != 0 {
			return nil, fmt.Errorf("%s: %s run failed %d of %d operations", path, workload, r.Failed, r.Attempted)
		}
		out[workload] = r
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}
