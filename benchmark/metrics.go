package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload:
// what a user of the system sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer the workload does not exercise reports 0. README.md maps each
// to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"enumerate.busy_ms", "ms"},
	{"enumerate.patterns", "count"},
	{"enumerate.candidates", "count"},
	{"enumerate.dedup_hit_ratio", "ratio"},
	{"sim.calls", "count"},
	{"sim.busy_ms", "ms"},
	{"sim.run_p50_us", "us"},
	{"sim.run_p99_us", "us"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"memo.states", "count"},
	{"memo.hit_ratio", "ratio"},
	{"core.views", "count"},
	{"sched.calls", "count"},
	{"sched.busy_ms", "ms"},
	{"sched.run_p50_us", "us"},
	{"sched.run_p99_us", "us"},
	{"adversary.decide_calls", "count"},
	{"adversary.decide_p50_us", "us"},
	{"adversary.decide_p99_us", "us"},
	{"adversary.decide_ms.heuristic", "ms"},
	{"adversary.decide_ms.solver", "ms"},
	{"adversary.decided.heuristic", "count"},
	{"adversary.decided.solver", "count"},
	{"adversary.solver_states", "count"},
	{"adversary.memo_hit_ratio", "ratio"},
	{"sweep.absorb_calls", "count"},
	{"sweep.absorb_busy_ms", "ms"},
	{"sweep.dispatch_ms", "ms"},
	{"dist.run_shard_ms", "ms"},
	{"dist.read_shard_ms", "ms"},
	{"dist.wire_mb", "MB"},
	{"dist.shard_p50_ms", "ms"},
	{"dist.shard_max_ms", "ms"},
	{"dist.checkpoint_write_p50_us", "us"},
	{"dist.checkpoint_write_max_us", "us"},
	{"dist.checkpoint_kb", "KB"},
	{"dist.retries", "count"},
	{"serve.verdict_hit_p50_ns", "ns"},
	{"serve.verdict_hit_p99_ns", "ns"},
	{"serve.handler_hit_p50_us", "us"},
	{"serve.handler_hit_p99_us", "us"},
	{"serve.handler_miss_p50_ms", "ms"},
	{"serve.resp_bytes", "B"},
	{"serve.table_hits", "count"},
	{"serve.solves", "count"},
	{"serve.cached", "count"},
	{"loadgen.hit_p50_us.lo", "us"},
	{"loadgen.hit_p99_us.lo", "us"},
	{"loadgen.hit_p50_us.hi", "us"},
	{"loadgen.hit_p99_us.hi", "us"},
	{"loadgen.miss_p50_ms", "ms"},
	{"loadgen.miss_p95_ms", "ms"},
	{"loadgen.max_rps", "1/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.samples.hit", "count"},
	{"loadgen.samples.miss", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"process.cpu_s", "s"},
	{"process.parallel_efficiency", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ratio", "ratio"},
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB is the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Go runtime counters read around a measured rep.
var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

// procMeter measures the process over one rep: CPU, allocation, GC and
// the live-heap peak, sampled every few milliseconds.
type procMeter struct {
	wall   time.Time
	cpu    time.Duration
	before []metrics.Sample
	stop   chan struct{}
	peak   chan uint64
}

func startMeter() *procMeter {
	m := &procMeter{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	m.before = readRuntime()
	m.cpu = cpuTime()
	m.wall = time.Now()
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-m.stop:
				m.peak <- peak
				return
			}
		}
	}()
	return m
}

func readRuntime() []metrics.Sample {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return s
}

// finish stops the meter and adds its metrics.
func (m *procMeter) finish(out map[string]float64) (wall time.Duration) {
	wall = time.Since(m.wall)
	cpu := cpuTime() - m.cpu
	after := readRuntime()
	close(m.stop)
	peak := <-m.peak
	out["runtime.alloc_mb"] = float64(after[0].Value.Uint64()-m.before[0].Value.Uint64()) / (1 << 20)
	out["runtime.gc_cycles"] = float64(after[1].Value.Uint64() - m.before[1].Value.Uint64())
	out["runtime.gc_cpu_s"] = after[2].Value.Float64() - m.before[2].Value.Float64()
	out["runtime.heap_peak_mb"] = float64(peak) / (1 << 20)
	out["process.cpu_s"] = cpu.Seconds()
	out["process.parallel_efficiency"] = ratio(cpu.Seconds(), wall.Seconds()*float64(workers))
	return wall
}
