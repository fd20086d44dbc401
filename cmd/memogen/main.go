// Command memogen regenerates internal/core/gatherer_memo_gen.go: the
// converged view→move table of the full Gatherer over the complete
// n = 7 exhaustive sweep, serialized as Go source so cold starts are
// table-driven (like the synthesized override table in
// overrides_gen.go).
//
// The table is the fixed point of the sweep: every packed view any
// robot sees in any round of any of the 3652 runs, mapped to the move
// the algorithm decides there. The set is deterministic — FSYNC runs
// are deterministic and the union over runs is order-independent — so
// regeneration is reproducible, and the core package's fixed-point test
// fails if the committed table ever drifts from a fresh computation.
//
// Usage (normally via go:generate in internal/core):
//
//	memogen [-out gatherer_memo_gen.go]
package main

import (
	"context"
	"flag"
	"fmt"
	"go/format"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/sweep"
)

func main() {
	out := flag.String("out", "gatherer_memo_gen.go", "output file")
	flag.Parse()

	alg := core.Gatherer{}
	memo := core.NewMemo()
	// The Cache wrapper routes every packed decision through the Memo
	// (computing each one from the map-based Compute), so the snapshot
	// below is exactly the set of views the sweep visits — independent
	// of the process-wide seeded tables being generated.
	rep, err := sweep.Run(context.Background(), sweep.Spec{Alg: alg, Cache: memo})
	if err != nil {
		fmt.Fprintf(os.Stderr, "memogen: %v\n", err)
		os.Exit(1)
	}
	if !rep.AllGathered() {
		fmt.Fprintf(os.Stderr, "memogen: sweep did not fully gather: %s\n", rep)
		os.Exit(1)
	}
	table := memo.Snapshot(alg.Name())
	if len(table) == 0 {
		fmt.Fprintln(os.Stderr, "memogen: empty memo table")
		os.Exit(1)
	}

	keys := make([]uint64, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	var b []byte
	b = append(b, "// Code generated by cmd/memogen; DO NOT EDIT.\n\npackage core\n\n"...)
	needGrid := false
	for _, k := range keys {
		if table[k].IsMove() {
			needGrid = true
			break
		}
	}
	if needGrid {
		b = append(b, "import \"repro/internal/grid\"\n\n"...)
	}
	b = append(b, `// gathererMemoSeed is the converged view→move table of the full
// Gatherer: its decision for every packed view (keyed by
// vision.PackedView.Key64) arising anywhere in the complete n = 7
// exhaustive sweep. Seeded into the full variant's memo table at init
// so cold starts are table-driven. Regenerate with: go generate ./internal/core
var gathererMemoSeed = []struct {
	K uint64
	M Move
}{
`...)
	for _, k := range keys {
		mv := table[k]
		lit := "Stay"
		if mv.IsMove() {
			lit = fmt.Sprintf("MoveIn(grid.%s)", mv.Direction())
		}
		b = append(b, fmt.Sprintf("\t{0x%016x, %s},\n", k, lit)...)
	}
	b = append(b, "}\n"...)

	src, err := format.Source(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memogen: generated source does not format: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "memogen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("memogen: wrote %s (%d views)\n", *out, len(keys))
}
