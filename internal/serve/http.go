package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/sweep"
)

// VerdictResponse is the GET /verdict JSON schema: one pattern's
// complete verdict, unpacked from its Record.
type VerdictResponse struct {
	// Key is the canonical pattern key ("q,r;q,r;..." of the
	// translation-normalized nodes).
	Key string `json:"key"`
	N   int    `json:"n"`
	// Algorithm is the registry name the verdict is about.
	Algorithm string `json:"algorithm"`
	// Source says which tier answered: "table" (generated table),
	// "solved" (this request ran the engines) or "cached" (a previous
	// or concurrent solve was reused).
	Source string `json:"source"`
	// FSYNC is the deterministic fully-synchronous run.
	FSYNC struct {
		Status string `json:"status"`
		Rounds int    `json:"rounds"`
		Moves  int    `json:"moves"`
	} `json:"fsync"`
	// SSYNC is the robustness axis: gathered in Robust of Schedules
	// seeded activation schedules.
	SSYNC struct {
		Robust    int `json:"robust"`
		Schedules int `json:"schedules"`
	} `json:"ssync"`
	// Adversary is the exact defeasibility claim: "defeatable" (with
	// the witness kind and strategy depth), "safe", or "undecided"
	// (outside the decided envelope).
	Adversary struct {
		Verdict string `json:"verdict"`
		Witness string `json:"witness,omitempty"`
		Depth   int    `json:"depth,omitempty"`
	} `json:"adversary"`
}

// Handler returns the service's HTTP front-end:
//
//	GET  /verdict?key=q,r:q,r:...[&alg=name]   one pattern's verdict (JSON)
//	POST /sweep                                 streaming sweep: body is a
//	                                            sweep.SpecDesc, response the
//	                                            internal/dist framed JSONL
//	                                            stream (header, cases, summary)
//	GET  /healthz                               liveness + table coverage
//	GET  /metrics                               registry exposition (sorted text)
//	GET  /debug/pprof/*                         net/http/pprof (Options.Pprof only)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/verdict", s.handleVerdict)
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.opts.Pprof {
		MountPprof(mux)
	}
	return mux
}

// MountPprof attaches the net/http/pprof handlers to a mux — shared by
// the verdictd front-end and the sweepd worker/coordinator sidecars, so
// every daemon's profiling surface has the same shape. Opt-in only: a
// profiling endpoint can stall the process (heap dumps, 30s CPU
// captures) and must never be ambient on a serving port.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func (s *Service) handleVerdict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "verdict is GET", http.StatusMethodNotAllowed)
		return
	}
	keyParam := r.URL.Query().Get("key")
	if keyParam == "" {
		http.Error(w, "missing key parameter (want key=q,r:q,r:...)", http.StatusBadRequest)
		return
	}
	// The canonical key separator ";" is not legal raw in a query
	// string (net/url rejects it as an ambiguous separator), so the
	// URL form uses ":" between nodes; percent-encoded canonical keys
	// (%3B) arrive as ";" and pass through untouched.
	cfg, err := config.ParseKey(strings.ReplaceAll(keyParam, ":", ";"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if n := cfg.Len(); n < 1 || n > MaxQueryRobots {
		http.Error(w, fmt.Sprintf("%d robots outside the query envelope [1,%d]", n, MaxQueryRobots), http.StatusBadRequest)
		return
	}
	algName := r.URL.Query().Get("alg")
	start := time.Now()
	rec, src, err := s.Verdict(r.Context(), algName, cfg)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownAlgorithm) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	micros := time.Since(start).Microseconds()
	if src == SourceTable {
		s.hitLat.Observe(micros)
	} else {
		s.missLat.Observe(micros)
	}

	if algName == "" {
		algName = s.opts.DefaultAlg
	}
	resp := VerdictResponse{Key: cfg.Key(), N: cfg.Len(), Algorithm: algName, Source: src.String()}
	resp.FSYNC.Status = rec.FSYNCStatus().String()
	resp.FSYNC.Rounds = rec.FSYNCRounds()
	resp.FSYNC.Moves = rec.FSYNCMoves()
	resp.SSYNC.Robust = rec.Robust()
	resp.SSYNC.Schedules = s.Schedules(src)
	resp.Adversary.Verdict = rec.Adversary().String()
	if rec.Adversary() == AdvDefeatable {
		resp.Adversary.Witness = rec.WitnessKind().String()
		resp.Adversary.Depth = rec.WitnessDepth()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// maxSweepBody bounds the POST /sweep request body. A SpecDesc is a
// few hundred bytes; the decoder stops reading past the limit, and the
// request is answered 413.
const maxSweepBody = 1 << 20

// handleSweep streams a whole sweep as the internal/dist framed JSONL
// protocol — the same bytes a sweepd worker emits for the full-range
// shard, so existing dist.ReadShard consumers parse it directly. The
// request body is a sweep.SpecDesc; cancellation (client gone, server
// draining past its grace period) aborts the underlying sweep through
// the request context.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "sweep is POST", http.StatusMethodNotAllowed)
		return
	}
	var desc sweep.SpecDesc
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody)).Decode(&desc); err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			s.met.Errors.Inc()
			http.Error(w, fmt.Sprintf("spec larger than %d bytes", maxSweepBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("malformed spec: %v", err), http.StatusBadRequest)
		return
	}
	desc.Normalize()
	if err := desc.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := desc.Spec()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.met.Sweeps.Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	shard := sweep.Range{Lo: 0, Hi: spec.Source.Count()}
	// A fresh WorkerState per request (no warm cross-request state, as
	// before), but carrying the service registry so the sweep engine's
	// throughput series land on this daemon's /metrics page.
	st := &dist.WorkerState{Metrics: s.reg}
	if err := dist.RunShard(r.Context(), desc, shard, flushWriter{w}, st); err != nil {
		// Headers are gone; a truncated stream (no trailing summary)
		// is the in-band error signal, exactly as for a dead worker.
		s.met.Errors.Inc()
	}
}

// flushWriter flushes after every write so the JSONL stream reaches
// the client line-by-line as the sweep progresses.
type flushWriter struct{ w http.ResponseWriter }

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	minN, maxN := TableBounds()
	fmt.Fprintf(w, "{\"status\":\"ok\",\"table_patterns\":%d,\"table_min_n\":%d,\"table_max_n\":%d}\n",
		TableLen(), minN, maxN)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.WriteText(w)
}
