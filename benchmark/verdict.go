package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/memo"
	"repro/internal/serve"
	"repro/internal/sim"
)

// verdict-serve drives serve.Service.Handler over loopback HTTP from
// two clients on two connections. Untraced, the clients send
// closed-loop batches of table hits: each waits for an answer before
// its next request. The traced run adds an open loop, in which requests
// arrive on a seeded Poisson schedule whether or not earlier ones have
// been answered: 99% ask for a pattern the generated table covers, 1%
// for an n = 9 pattern no request asked for before, so each is a live
// solve competing for the same cores.
const (
	// batchSize is the number of requests in one closed-loop batch, the
	// workload's rep.
	batchSize = 1000
	loRate    = 1000.0 // requests per second on the lo rung
	hiRate    = 3000.0 // on the hi rung: about 40% of the hit path's max_rps
	missShare = 0.01
	missN     = 9 // the first robot count past the table
	// hitLimit is the hit-latency limit max_rps is defined against.
	hitLimit = time.Millisecond
	// probeCeiling is the top of the max_rps search.
	probeCeiling = 16000.0
)

// hitKey is one table-covered pattern a request may ask for.
type hitKey struct {
	path string
	cfg  config.Config
	rec  serve.Record
}

// verdictBench is verdict-open after set-up: a service behind a
// loopback server, a client limited to two connections, and the
// request inputs.
type verdictBench struct {
	svc     *serve.Service
	handler http.Handler
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
	hits    []hitKey
	misses  []config.Key128 // in the seed's order; each is asked for once
	next    int             // the next unused miss
	rng     *rand.Rand
	seq     uint64 // requests issued so far, for trace ids
	est     enumerate.Stats
	// waiters time the open loop, one per client.
	waiters [workers]*waiter
	// server is the handler middleware's span lane; nil when untraced.
	server atomic.Pointer[lane]
}

func setupVerdict(e *env, l *lane) (*verdictBench, error) {
	v := &verdictBench{rng: rand.New(rand.NewSource(e.seed)), served: make(chan error, 1)}
	minN, maxN := serve.TableBounds()
	for n := max(2, minN); n <= min(8, maxN); n++ {
		lo, hi, _ := serve.TableRange(n)
		for i := lo; i < hi; i++ {
			k, rec := serve.TableEntry(i)
			cfg, err := config.FromKey128(k)
			if err != nil {
				return nil, err
			}
			v.hits = append(v.hits, hitKey{path: verdictPath(cfg), cfg: cfg, rec: rec})
		}
	}
	sp := l.begin()
	keys, est := enumerate.KeysStats(missN, workers)
	l.end(sp, spanKeysStats, 0, 0)
	v.est = est
	v.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	v.misses = keys

	svc, err := serve.NewService(serve.Options{})
	if err != nil {
		return nil, err
	}
	v.svc, v.handler = svc, svc.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	v.base = "http://" + ln.Addr().String()
	v.srv = &http.Server{Handler: v, ReadHeaderTimeout: 10 * time.Second}
	go func() { v.served <- v.srv.Serve(ln) }()
	v.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers},
	}
	for w := range v.waiters {
		if v.waiters[w], err = newWaiter(); err != nil {
			v.close()
			return nil, err
		}
	}
	resp, err := v.client.Get(v.base + "/healthz")
	if err != nil {
		v.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		v.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return v, nil
}

// verdictPath is the GET /verdict request path of a pattern.
func verdictPath(c config.Config) string {
	return "/verdict?key=" + url.QueryEscape(strings.ReplaceAll(c.Key(), ";", ":"))
}

func (v *verdictBench) close() {
	v.srv.Close()
	if err := <-v.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("# server: %v\n", err)
	}
	v.client.CloseIdleConnections()
	for _, w := range v.waiters {
		w.close()
	}
}

// ServeHTTP is the handler middleware: the service's own handler, with
// a serve.handler span per request while a traced rung runs.
func (v *verdictBench) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l := v.server.Load()
	if l == nil {
		v.handler.ServeHTTP(w, r)
		return
	}
	sp := l.begin()
	v.handler.ServeHTTP(w, r)
	trace, _ := strconv.ParseUint(r.Header.Get("X-Bench-Trace"), 10, 64)
	parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Parent"), 10, 64)
	l.end(sp, spanHandler, parent, trace)
}

// rung is one phase of requests: open-loop at a fixed offered rate, or
// a closed-loop batch (rate 0).
type rung struct {
	rate  float64
	span  time.Duration
	reqs  []sent
	miss  []bool
	key   []int // index into hits, or into misses when miss
	trace []uint64
	body  [][]byte
	err   []error // why a failed request failed
}

// openLoop offers rate requests per second for dur, missShare of them
// misses.
func (v *verdictBench) openLoop(ctx context.Context, rate, missShare float64, dur time.Duration, tr *tracer) (*rung, error) {
	r, err := v.run(ctx, arrivals(v.rng, rate, dur), missShare, tr)
	if r != nil {
		r.rate, r.span = rate, dur
	}
	return r, err
}

// batch sends n table hits back to back: both connections' clients
// wait for each answer before sending their next request. A batch has
// no misses: each would be a live solve whose state the service keeps,
// so a faster server would do more of them in a window and grow its
// memory with its speed.
func (v *verdictBench) batch(ctx context.Context, n int) (*rung, error) {
	return v.run(ctx, make([]time.Duration, n), 0, nil)
}

// run sends one request per due time, missShare of them misses, from
// two clients that each wait for an answer before taking the next
// request. With a tracer, each request is a loadgen.request span from
// its due time to its answer, with a client.roundtrip child whose
// serve.handler child the server records.
func (v *verdictBench) run(ctx context.Context, due []time.Duration, missShare float64, tr *tracer) (*rung, error) {
	r := &rung{
		reqs: make([]sent, len(due)), miss: make([]bool, len(due)), key: make([]int, len(due)),
		trace: make([]uint64, len(due)), body: make([][]byte, len(due)), err: make([]error, len(due)),
	}
	for i, d := range due {
		r.reqs[i].due = d
		v.seq++
		r.trace[i] = v.seq
		if v.rng.Float64() < missShare && v.next < len(v.misses) {
			r.miss[i], r.key[i] = true, v.next
			v.next++
		} else {
			r.key[i] = v.rng.Intn(len(v.hits))
		}
	}
	if tr != nil {
		v.server.Store(tr.lane(false))
		defer v.server.Store(nil)
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := tr.lane(true)
			defer l.done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := due[i] - time.Since(start); d > 0 {
					sp := l.begin()
					if errs[w] = v.waiters[w].sleep(d); errs[w] != nil {
						return
					}
					l.end(sp, spanWait, 0, 0)
				}
				path := ""
				if r.miss[i] {
					c, err := config.FromKey128(v.misses[r.key[i]])
					if err != nil {
						errs[w] = err
						return
					}
					path = verdictPath(c)
				} else {
					path = v.hits[r.key[i]].path
				}
				id := l.newID()
				sp := l.begin()
				r.reqs[i].start = time.Since(start)
				r.body[i], r.err[i] = v.get(ctx, path, r.trace[i], sp.id)
				r.reqs[i].done = time.Since(start)
				r.reqs[i].failed = r.err[i] != nil
				l.end(sp, spanRoundtrip, id, r.trace[i])
				if tr != nil {
					l.add(span{ID: id, Trace: r.trace[i], Name: spanRequest,
						Start: tr.at(start.Add(due[i])), End: tr.at(start.Add(r.reqs[i].done))})
				}
			}
		}()
	}
	wg.Wait()
	return r, errors.Join(errs...)
}

// get issues one request and reads its whole answer; an answer other
// than 200 OK is an error.
func (v *verdictBench) get(ctx context.Context, path string, trace, parent uint64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, v.base+path, nil)
	if err != nil {
		return nil, err
	}
	if parent != 0 {
		req.Header.Set("X-Bench-Trace", strconv.FormatUint(trace, 10))
		req.Header.Set("X-Bench-Parent", strconv.FormatUint(parent, 10))
	}
	resp, err := v.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %q", resp.Status, bytes.TrimSpace(body))
	}
	return body, err
}

// latencies returns the rung's latencies from due time for hits or for
// misses, in unit.
func (r *rung) latencies(miss bool, unit time.Duration) []float64 {
	var ds []time.Duration
	for i, q := range r.reqs {
		if r.miss[i] == miss {
			ds = append(ds, q.latency())
		}
	}
	return durations(ds, unit)
}

// wall is the time from the first request's due time to the last
// answer.
func (r *rung) wall() time.Duration {
	var last time.Duration
	for _, q := range r.reqs {
		last = max(last, q.done)
	}
	return last
}

// tableResponse is what GET /verdict must answer for a table hit: the
// table's record, unpacked.
func tableResponse(h hitKey) serve.VerdictResponse {
	var want serve.VerdictResponse
	want.Key, want.N, want.Algorithm, want.Source = h.cfg.Key(), h.cfg.Len(), "full", "table"
	want.FSYNC.Status = h.rec.FSYNCStatus().String()
	want.FSYNC.Rounds = h.rec.FSYNCRounds()
	want.FSYNC.Moves = h.rec.FSYNCMoves()
	want.SSYNC.Robust = h.rec.Robust()
	want.SSYNC.Schedules = serve.TableSchedules
	want.Adversary.Verdict = h.rec.Adversary().String()
	if h.rec.Adversary() == serve.AdvDefeatable {
		want.Adversary.Witness = h.rec.WitnessKind().String()
		want.Adversary.Depth = h.rec.WitnessDepth()
	}
	return want
}

// verify checks every request of a rung: each must have been answered,
// a hit with the table's record and a miss with a fresh solve whose
// FSYNC outcome equals a direct sim.Run's. It runs after the rung,
// untimed. A failed request fails the run: a server that answered with
// errors would otherwise look faster.
func (v *verdictBench) verify(r *rung) error {
	for i, q := range r.reqs {
		if q.failed {
			return fmt.Errorf("request %d failed: %v", r.trace[i], r.err[i])
		}
		var got serve.VerdictResponse
		if err := json.Unmarshal(r.body[i], &got); err != nil {
			return fmt.Errorf("request %d: %v in %q", r.trace[i], err, r.body[i])
		}
		if !r.miss[i] {
			if want := tableResponse(v.hits[r.key[i]]); got != want {
				return fmt.Errorf("hit %s: answered %+v, the table says %+v", want.Key, got, want)
			}
			continue
		}
		c, err := config.FromKey128(v.misses[r.key[i]])
		if err != nil {
			return err
		}
		res := sim.Run(core.Gatherer{}, c, directOptions)
		if got.Source != "solved" || got.FSYNC.Status != res.Status.String() ||
			got.FSYNC.Rounds != res.Rounds || got.FSYNC.Moves != res.Moves {
			return fmt.Errorf("miss %s: answered %s %s/%d rounds/%d moves, a direct run gives %v/%d/%d",
				c.Key(), got.Source, got.FSYNC.Status, got.FSYNC.Rounds, got.FSYNC.Moves, res.Status, res.Rounds, res.Moves)
		}
	}
	return nil
}

// runVerdict is verdict-serve: set up, an untimed warm-up, then timed
// closed-loop batches for the window; wall_s is their median. Traced,
// the batches run for half the window to measure the process; then
// come the open-loop lo and hi rungs, the hi rung again with spans, a
// direct Service.Verdict replay of the batches' hits and the max_rps
// search. Every answer is checked after the phase that got it.
func runVerdict(setup func(e *env, l *lane) (*verdictBench, error)) func(e *env) (*outcome, error) {
	return func(e *env) (*outcome, error) { return serveVerdicts(e, setup) }
}

func serveVerdicts(e *env, setup func(e *env, l *lane) (*verdictBench, error)) (*outcome, error) {
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	v, setups, err := setUp(e, tr.lane(false), setup, (*verdictBench).close)
	if err != nil {
		return nil, err
	}
	defer v.close()

	o := &outcome{metrics: map[string]float64{}}
	var answered, answerBytes float64
	// count checks a phase's answers and counts its requests, then drops
	// the answers so that a run's memory does not grow with its length.
	count := func(r *rung) error {
		o.attempted += int64(len(r.reqs))
		if err := v.verify(r); err != nil {
			return err
		}
		for i, b := range r.body {
			answered++
			answerBytes += float64(len(b))
			r.body[i] = nil
		}
		return nil
	}
	// batches sends batches for at least d and min of them and returns
	// their walls and, traced, the batches without their answers for the
	// replay. An untraced run keeps no batch, so that its peak memory
	// does not grow with the number of batches a faster server answers.
	batches := func(d time.Duration, min int) (walls []float64, done []*rung, err error) {
		start := time.Now()
		for len(walls) < min || time.Since(start) < d {
			b, err := v.batch(e.ctx, batchSize)
			if err != nil {
				return nil, nil, err
			}
			if err := count(b); err != nil {
				return nil, nil, err
			}
			walls = append(walls, b.wall().Seconds())
			if e.trace {
				done = append(done, b)
			}
		}
		return walls, done, nil
	}
	if _, _, err := batches(e.size.warmup, 1); err != nil {
		return nil, err
	}
	o.attempted, answered, answerBytes = 0, 0, 0

	if !e.trace {
		walls, _, err := batches(e.window, e.size.minReps)
		if err != nil {
			return nil, err
		}
		o.metrics["setup_s"] = median(setups)
		o.metrics["wall_s"] = median(walls)
		o.metrics["max_rss_mb"] = maxRSSMB()
		o.note("setup_s over %d set-ups: median %.4f, spread %.3f", len(setups), median(setups), spread(setups))
		o.note("wall_s over %d batches of %d hits: spread %.3f", len(walls), batchSize, spread(walls))
		return o, nil
	}

	m := startMeter()
	walls, done, err := batches(e.window/2, e.size.minReps)
	if err != nil {
		return nil, err
	}
	m.finish(o.metrics)
	o.metrics["serve.resp_bytes"] = ratio(answerBytes, answered)
	ns, err := v.replay(e.ctx, done...)
	if err != nil {
		return nil, err
	}
	o.metrics["serve.verdict_hit_p50_ns"] = median(ns)
	o.metrics["serve.verdict_hit_p99_ns"], _ = percentile(ns, 0.99)

	met := v.svc.Metrics()
	tables, solves, cached := met.TableHits.Value(), met.Solves.Value(), met.Cached.Value()
	var rungs [3]*rung
	for i, p := range []struct {
		rate float64
		tr   *tracer
		name string
	}{{loRate, nil, "lo"}, {hiRate, nil, "hi"}, {hiRate, tr, "traced hi"}} {
		if rungs[i], err = v.openLoop(e.ctx, p.rate, missShare, e.window/2, p.tr); err != nil {
			return nil, err
		}
		if err := count(rungs[i]); err != nil {
			return nil, err
		}
		o.note("%s: %s", p.name, describe(rungs[i]))
	}
	o.metrics["serve.table_hits"] = float64(met.TableHits.Value() - tables)
	o.metrics["serve.solves"] = float64(met.Solves.Value() - solves)
	o.metrics["serve.cached"] = float64(met.Cached.Value() - cached)
	loadgenLayers(o.metrics, rungs[0], rungs[1])

	hitP50 := func(r *rung) float64 { return median(r.latencies(false, time.Second)) }
	o.metrics["trace.overhead_ratio"] = ratio(hitP50(rungs[2]), hitP50(rungs[1]))
	o.metrics["trace.unattributed_ratio"] = tr.unattributed()
	spans := tr.spans()
	handlerLayers(o.metrics, spans, rungs[2])
	o.metrics["enumerate.busy_ms"] = summarise(spans).busyMS(spanKeysStats)
	enumLayers(o.metrics, v.est)
	text := v.svc.Registry().Expose()
	memoLayers(o.metrics, memoFromText(text), gauge(text, `verdictd_memo_states{alg="full"}`))

	maxRPS, err := v.maxRPS(e.ctx, e.size)
	if err != nil {
		return nil, err
	}
	o.metrics["loadgen.max_rps"] = maxRPS
	o.note("batches %.4fs; %d spans; max_rps %.0f", median(walls), len(spans), maxRPS)
	if e.spans != "" {
		if err := tr.write(e.spans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// describe is an open-loop rung's one-line summary.
func describe(r *rung) string {
	hp50 := median(r.latencies(false, time.Microsecond))
	hp99, _ := percentile(r.latencies(false, time.Microsecond), 0.99)
	mp50 := median(r.latencies(true, time.Millisecond))
	var late []float64
	for _, q := range r.reqs {
		late = append(late, float64(q.lateness())/float64(time.Millisecond))
	}
	lp99, _ := percentile(late, 0.99)
	return fmt.Sprintf("open loop at %.0f/s for %s: %d requests (%d misses); hit p50 %.1fus p99 %.1fus; miss p50 %.2fms; late p99 %.3fms",
		r.rate, r.span, len(r.reqs), len(r.latencies(true, time.Millisecond)), hp50, hp99, mp50, lp99)
}

// loadgenLayers reports the untraced rungs as the load generator saw
// them.
func loadgenLayers(out map[string]float64, lo, hi *rung) {
	for _, x := range []struct {
		name string
		r    *rung
	}{{"lo", lo}, {"hi", hi}} {
		hits := x.r.latencies(false, time.Microsecond)
		out["loadgen.hit_p50_us."+x.name] = median(hits)
		out["loadgen.hit_p99_us."+x.name], _ = percentile(hits, 0.99)
	}
	misses := append(lo.latencies(true, time.Millisecond), hi.latencies(true, time.Millisecond)...)
	out["loadgen.miss_p50_ms"] = median(misses)
	out["loadgen.miss_p95_ms"], _ = percentile(misses, 0.95)
	var late []float64
	for _, r := range []*rung{lo, hi} {
		for _, q := range r.reqs {
			late = append(late, float64(q.lateness())/float64(time.Millisecond))
		}
	}
	out["loadgen.late_p99_ms"], _ = percentile(late, 0.99)
	out["loadgen.samples.hit"] = float64(len(lo.latencies(false, time.Second)) + len(hi.latencies(false, time.Second)))
	out["loadgen.samples.miss"] = float64(len(misses))
}

// handlerLayers reports the server-side spans of the traced rungs, split
// into hits and misses by the request each belongs to.
func handlerLayers(out map[string]float64, spans []span, rungs ...*rung) {
	miss := map[uint64]bool{}
	for _, r := range rungs {
		for i, t := range r.trace {
			miss[t] = r.miss[i]
		}
	}
	var hits, misses []float64
	for _, s := range spans {
		if s.Name != spanHandler {
			continue
		}
		if miss[s.Trace] {
			misses = append(misses, float64(s.dur())/1e6)
		} else {
			hits = append(hits, float64(s.dur())/1e3)
		}
	}
	out["serve.handler_hit_p50_us"] = median(hits)
	out["serve.handler_hit_p99_us"], _ = percentile(hits, 0.99)
	out["serve.handler_miss_p50_ms"] = median(misses)
}

// replay asks the service directly — no HTTP — for every hit the rungs
// asked for, timing each call, and checks each answer against the
// table.
func (v *verdictBench) replay(ctx context.Context, rungs ...*rung) ([]float64, error) {
	var ns []float64
	for _, r := range rungs {
		for i, k := range r.key {
			if r.miss[i] {
				continue
			}
			h := v.hits[k]
			start := time.Now()
			rec, src, err := v.svc.Verdict(ctx, "", h.cfg)
			ns = append(ns, float64(time.Since(start)))
			if err != nil || src != serve.SourceTable || rec != h.rec {
				return nil, fmt.Errorf("direct verdict of %s: %v from %v (%v), the table says %v", h.cfg.Key(), rec, src, err, h.rec)
			}
		}
	}
	return ns, nil
}

// maxRPS searches for the highest rate of table hits alone at which
// hit p99 stays within hitLimit and the generator's backlog does not
// grow, bisecting between loRate and probeCeiling. The probes send no
// misses: one live solve holds a connection for milliseconds, so with
// misses in the mix no rate keeps hit p99 under a millisecond.
func (v *verdictBench) maxRPS(ctx context.Context, sz size) (float64, error) {
	lo, hi := loRate, probeCeiling
	for i := 0; i < sz.probeSteps; i++ {
		mid := (lo + hi) / 2
		r, err := v.openLoop(ctx, mid, 0, sz.probe, nil)
		if err != nil {
			return 0, err
		}
		if err := v.verify(r); err != nil {
			return 0, err
		}
		p99, ok := percentile(r.latencies(false, time.Second), 0.99)
		if ok && p99 <= hitLimit.Seconds() && !backlogGrowing(r.reqs, r.span) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// memoFromText reads the service's FSYNC outcome-store counters off its
// metrics exposition.
func memoFromText(text string) memo.Stats {
	return memo.Stats{
		Hits:   gauge(text, `verdictd_memo_hits{alg="full"}`),
		Misses: gauge(text, `verdictd_memo_misses{alg="full"}`),
	}
}

// gauge returns a series' value from a metrics exposition, 0 when the
// series is absent.
func gauge(text, series string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}
