// Command verdictd is the verdict service daemon: a long-running HTTP
// server answering per-pattern gathering queries over the repo's
// evaluation engines (internal/serve).
//
// The hot path is the generated verdict table: every connected pattern
// with n ≤ 8 is answered by one binary search over the embedded,
// load-verified table (internal/serve/verdicts.bin) — allocation-free,
// no engine runs. Anything else (n ≥ 9, disconnected
// relaxed-space starts, non-default algorithms) is computed live by
// the sweep/sim/adversary machinery behind per-key single-flight, so a
// thundering herd of identical novel queries costs exactly one solve.
//
// Endpoints:
//
//	GET  /verdict?key=q,r:q,r:...[&alg=name]  one pattern's verdict (JSON)
//	POST /sweep                               body: sweep SpecDesc JSON;
//	                                          response: the internal/dist
//	                                          framed JSONL stream
//	GET  /healthz                             liveness + table coverage
//	GET  /metrics                             metrics registry (sorted text)
//	GET  /debug/pprof/*                       profiling (-pprof only)
//
// Flags:
//
//	-addr :8417        listen address
//	-alg full          default algorithm for queries naming none
//	-max-rounds N      live-run round bound (0 = engine default)
//	-schedules 8       SSYNC robustness axis of live solves
//	-adv-max-n 9       exact defeasibility bound for live solves
//	-drain 30s         graceful-shutdown grace period
//	-pprof             mount net/http/pprof under /debug/pprof/ (off by default)
//
// On SIGINT/SIGTERM the server stops accepting connections and drains:
// in-flight verdict solves and /sweep streams run to completion (or
// the -drain deadline, whichever first) before the process exits 0.
// Exit status 2 on usage or listen errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/serve"
)

// Connection timeouts. A client gets readHeaderTimeout to send its
// request headers, so a slow or stalled client cannot pin a connection
// forever, and an idle keep-alive connection is closed after
// idleTimeout. There is no write timeout: POST /sweep streams its
// framed results for as long as the sweep runs, which no fixed write
// deadline can bound.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8417", "listen address")
	shared := cliflags.Register(flag.CommandLine, cliflags.FlagAlg|cliflags.FlagMaxRounds)
	schedules := flag.Int("schedules", serve.TableSchedules, "SSYNC robustness schedules per live solve")
	advMaxN := flag.Int("adv-max-n", 9, "largest n decided exactly on the live path")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period for in-flight work")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	flag.Parse()

	svc, err := serve.NewService(serve.Options{
		DefaultAlg: *shared.Alg,
		Schedules:  *schedules,
		AdvMaxN:    *advMaxN,
		MaxRounds:  *shared.MaxRounds,
		Pprof:      *pprofOn,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "verdictd: %v\n", err)
		os.Exit(2)
	}

	srv := &http.Server{
		Addr: *addr, Handler: svc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	minN, maxN := serve.TableBounds()
	fmt.Fprintf(os.Stderr, "verdictd: listening on %s (table: %d patterns, %d <= n <= %d; default alg %q)\n",
		*addr, serve.TableLen(), minN, maxN, svc.Options().DefaultAlg)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		// ListenAndServe only returns on failure to serve at all.
		fmt.Fprintf(os.Stderr, "verdictd: %v\n", err)
		os.Exit(2)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "verdictd: %v: draining (grace %s)\n", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Grace expired with work still in flight: close it out hard.
		fmt.Fprintf(os.Stderr, "verdictd: drain incomplete: %v\n", err)
		srv.Close()
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "verdictd: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "verdictd: drained, bye")
}
