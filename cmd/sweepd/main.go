// Command sweepd is the distributed sweep testbed's CLI
// (internal/dist): a coordinator that shards a sweep by source range
// across worker processes and merges their framed JSONL streams into a
// report bit-identical to a single-process cmd/verify run, plus the
// worker loop those processes run.
//
//	sweepd run     plan and execute a distributed sweep from scratch
//	sweepd resume  continue a preempted sweep from its checkpoint
//	sweepd serve   worker mode: execute work units from stdin
//
// The sweep flags of `run` mirror cmd/verify (-n, -alg, -sched,
// -seeds, -range, -max-rounds); the orchestration flags size and
// harden the run (-shards, -workers, -retries, -backoff, -checkpoint).
// With -progress the coordinator refreshes a stderr line per absorbed
// shard (shards, patterns, throughput, retries, ETA); with
// -metrics-addr it serves its fleet-wide metrics registry and pprof
// over HTTP while the run is live, and `sweepd serve -pprof` gives a
// worker the same sidecar. With -checkpoint the coordinator persists
// (completed shards, partial aggregate) atomically after every
// absorbed shard, so a preempted multi-hour run restarts where it
// stopped via `sweepd resume`; a
// worker killed mid-shard is detected by stream truncation and its
// shard is re-queued with bounded retry and exponential backoff —
// shards merge atomically only after their trailing summary verifies,
// so a crash can never corrupt the aggregate.
//
// With -index the coordinator and every worker load pre-built pattern
// indexes (cmd/enumgen artifacts, sha256-verified at load): planning
// reads the pattern count off the index and each worker seeks straight
// to its shard's [lo, hi) in the flat key array instead of
// re-enumerating the space per process — the startup cost that
// dominated n ≥ 9 fleets. Reports are bit-identical with and without
// an index (the CI dist job proves it at n = 8).
//
// Usage:
//
//	sweepd run [-alg full|...] [-n 7] [-range 1] [-sched fsync|ssync|cent]
//	           [-seeds 1] [-max-rounds N] [-shards S] [-workers W]
//	           [-retries R] [-backoff D] [-checkpoint F] [-backend proc|inproc]
//	           [-json] [-progress] [-allow-failures] [-metrics-addr A]
//	           [-index F,...]
//	sweepd resume -checkpoint F [-workers W] [-retries R] [-backoff D]
//	           [-backend proc|inproc] [-json] [-progress] [-allow-failures]
//	           [-metrics-addr A] [-index F,...]
//	sweepd serve [-pprof A] [-index F,...]
//
// Exit status mirrors cmd/verify: 0 when every run gathered or
// -allow-failures was given, 1 when the sweep completed with
// non-gathering runs, 2 on usage or internal errors. Diagnostics and
// -progress go to stderr; stdout carries only the report
// (machine-parseable under -json, byte-identical to `cmd/verify
// -json` over the same sweep).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	switch cmd := flag.Arg(0); cmd {
	case "run":
		cmdRun(flag.Args()[1:])
	case "resume":
		cmdResume(flag.Args()[1:])
	case "serve":
		cmdServe(flag.Args()[1:])
	default:
		fmt.Fprintf(os.Stderr, "sweepd: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: sweepd <command> [flags]

Distributed sweep testbed (internal/dist): shard a sweep by source
range across worker processes, merge the streamed results into a
report bit-identical to a single-process cmd/verify run, and survive
worker crashes (bounded re-queue) and coordinator preemption
(checkpoint/resume).

Commands:
  run     plan and execute a distributed sweep from scratch
  resume  continue a preempted sweep from its -checkpoint file
  serve   worker mode: execute work-unit lines from stdin, stream
          framed JSONL shard results on stdout (normally spawned by
          the coordinator; speaks the same format as cmd/verify
          -worker)

Run 'sweepd <command> -h' for the command's flags.
`)
}

// orchFlags registers the orchestration flags shared by run and
// resume on fs, returning pointers bundled for buildOptions.
type orch struct {
	shards      *int
	workers     *int
	retries     *int
	backoff     *time.Duration
	checkpoint  *string
	backend     *string
	jsonOut     *bool
	progress    *bool
	allowFail   *bool
	metricsAddr *string
	index       *string
}

func orchFlags(fs *flag.FlagSet) *orch {
	return &orch{
		shards:     fs.Int("shards", 0, "shard count (0 = 4 per worker): work units the source splits into"),
		workers:    fs.Int("workers", 3, "concurrent worker processes"),
		retries:    fs.Int("retries", 3, "re-queues allowed per shard after worker failures"),
		backoff:    fs.Duration("backoff", 100*time.Millisecond, "delay before a failed shard's first retry, doubling per attempt"),
		checkpoint: fs.String("checkpoint", "", "persist progress to this file after every absorbed shard"),
		backend:    fs.String("backend", "proc", "worker backend: proc (sweepd serve subprocesses) or inproc (this process)"),
		jsonOut:    fs.Bool("json", false, "print the merged report as JSON (byte-identical to cmd/verify -json)"),
		progress:   fs.Bool("progress", false, "report shard progress and coordinator events on stderr"),
		allowFail:  fs.Bool("allow-failures", false, "exit 0 even when the sweep does not fully gather"),
		metricsAddr: fs.String("metrics-addr", "",
			"serve the coordinator's /metrics (and /debug/pprof) on this address while the run is live"),
		index: fs.String("index", "",
			"comma-separated pattern-index files (cmd/enumgen): the coordinator plans off them and proc workers seek shards straight out of them, no per-worker re-enumeration"),
	}
}

func (o *orch) options() (dist.Options, error) {
	opts := dist.Options{
		Shards:         *o.shards,
		Workers:        *o.workers,
		MaxRetries:     *o.retries,
		Backoff:        *o.backoff,
		CheckpointPath: *o.checkpoint,
	}
	set, err := sweep.LoadIndexes(*o.index)
	if err != nil {
		return opts, fmt.Errorf("sweepd: loading pattern index: %v", err)
	}
	opts.Sources = set
	switch *o.backend {
	case "proc":
		exe, err := os.Executable()
		if err != nil {
			return opts, fmt.Errorf("sweepd: resolving own binary for worker processes: %v", err)
		}
		argv := []string{exe, "serve"}
		if *o.index != "" {
			// Workers verify and load the same artifacts themselves —
			// the files, not this process's memory, are the shared truth.
			argv = append(argv, "-index", *o.index)
		}
		opts.Backend = &dist.ProcBackend{Argv: argv, Stderr: os.Stderr}
	case "inproc":
		opts.Backend = dist.InprocBackend{Sources: set}
	default:
		return opts, fmt.Errorf("sweepd: unknown backend %q (want proc or inproc)", *o.backend)
	}
	if *o.progress {
		opts.Progress = progressLine
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *o.metricsAddr != "" {
		reg := metrics.NewRegistry()
		opts.Metrics = reg
		if err := serveMetrics(*o.metricsAddr, reg); err != nil {
			return opts, fmt.Errorf("sweepd: metrics listener: %v", err)
		}
	}
	return opts, nil
}

// progressLine renders one coordinator progress sample as a
// carriage-return-refreshed stderr line: shard and pattern progress,
// absorbed throughput, retries, and the ETA the current rate implies.
func progressLine(p dist.Progress) {
	rate := 0.0
	if secs := p.Elapsed.Seconds(); secs > 0 {
		rate = float64(p.DonePatterns) / secs
	}
	eta := "?"
	if rate > 0 && p.DonePatterns < p.TotalPatterns {
		left := float64(p.TotalPatterns-p.DonePatterns) / rate
		eta = (time.Duration(left * float64(time.Second))).Round(time.Second).String()
	} else if p.DonePatterns == p.TotalPatterns {
		eta = "0s"
	}
	fmt.Fprintf(os.Stderr, "sweepd: %d/%d shards, %d/%d patterns, %.0f patterns/s, %d retries, ETA %s\r",
		p.DoneShards, p.TotalShards, p.DonePatterns, p.TotalPatterns, rate, p.Retries, eta)
}

// serveMetrics exposes a registry (plus net/http/pprof) on addr in the
// background. The listener binds synchronously so a bad address fails
// the command instead of dying silently mid-run.
func serveMetrics(addr string, reg *metrics.Registry) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux)
	return nil
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("sweepd run", flag.ExitOnError)
	// Shared sweep vocabulary (cliflags); SpecDesc.Validate rejects
	// -sched adv, which stays single-process: n = 10 decides in about
	// 35 s in one process, and its per-pattern solver state counts
	// depend on which worker reaches a shared game state first.
	shared := cliflags.Register(fs, cliflags.SweepSet)
	o := orchFlags(fs)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sweepd run: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	opts, err := o.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.Spec = shared.Desc()
	report, err := dist.Run(context.Background(), opts)
	emit(report, err, o)
}

func cmdResume(args []string) {
	fs := flag.NewFlagSet("sweepd resume", flag.ExitOnError)
	o := orchFlags(fs)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sweepd resume: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	if *o.checkpoint == "" {
		fmt.Fprintln(os.Stderr, "sweepd resume: -checkpoint is required (the sweep description lives in the checkpoint)")
		os.Exit(2)
	}
	opts, err := o.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	report, err := dist.Resume(context.Background(), opts)
	emit(report, err, o)
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("sweepd serve", flag.ExitOnError)
	pprofAddr := fs.String("pprof", "", "serve this worker's /metrics and /debug/pprof on this address (off when empty)")
	index := fs.String("index", "", "comma-separated pattern-index files (cmd/enumgen) to seek shards from instead of re-enumerating")
	fs.Parse(args)
	set, err := sweep.LoadIndexes(*index)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepd serve: loading pattern index: %v\n", err)
		os.Exit(2)
	}
	st := &dist.WorkerState{Sources: set}
	if *pprofAddr != "" {
		st.Metrics = metrics.NewRegistry()
		if err := serveMetrics(*pprofAddr, st.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "sweepd serve: pprof listener: %v\n", err)
			os.Exit(2)
		}
	}
	if err := dist.ServeState(context.Background(), os.Stdin, os.Stdout, st); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd serve: %v\n", err)
		os.Exit(2)
	}
}

// emit prints the merged report exactly as cmd/verify does — same
// MarshalIndent shape under -json, same String rendering otherwise,
// same exit-code contract — so `sweepd run -json` is byte-comparable
// against `verify -json` (the CI dist job does exactly that).
func emit(report *sweep.Report, err error, o *orch) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(2)
	}
	if *o.progress {
		fmt.Fprintln(os.Stderr)
	}
	if err := report.Print(os.Stdout, *o.jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "sweepd: %v\n", err)
		os.Exit(2)
	}
	if !report.AllGathered() && !*o.allowFail {
		os.Exit(1)
	}
}
