package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"

	"repro/internal/dist"
	"strings"
	"sync"
	"testing"
)

func testServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	s := newService(t, opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestHTTPVerdict: the GET /verdict contract — colon-separated URL
// keys, the three source tiers, and the response schema.
func TestHTTPVerdict(t *testing.T) {
	_, srv := testServer(t, Options{AdvMaxN: 8})

	var hit VerdictResponse
	if resp := getJSON(t, srv.URL+"/verdict?key=0,0:1,0:2,0:0,1:1,1:2,1:1,2", &hit); resp.StatusCode != 200 {
		t.Fatalf("hexagon status %d", resp.StatusCode)
	}
	if hit.Source != "table" || hit.N != 7 || hit.FSYNC.Status != "gathered" ||
		hit.FSYNC.Rounds != 4 || hit.SSYNC.Robust != 8 || hit.SSYNC.Schedules != 8 ||
		hit.Adversary.Verdict != "safe" || hit.Adversary.Witness != "" {
		t.Fatalf("hexagon response %+v", hit)
	}
	if hit.Key != "0,0;0,1;1,0;1,1;1,2;2,0;2,1" {
		t.Fatalf("key not canonicalized: %q", hit.Key)
	}

	lineKey := strings.ReplaceAll(lineN9Key, ";", ":")
	var miss VerdictResponse
	getJSON(t, srv.URL+"/verdict?key="+lineKey, &miss)
	if miss.Source != "solved" || miss.FSYNC.Status != "stalled" || miss.Adversary.Verdict != "undecided" {
		t.Fatalf("n=9 response %+v", miss)
	}
	var again VerdictResponse
	getJSON(t, srv.URL+"/verdict?key="+lineKey, &again)
	if again.Source != "cached" || again.FSYNC != miss.FSYNC {
		t.Fatalf("repeat response %+v", again)
	}
}

// TestHTTPVerdictErrors: the client-error taxonomy.
func TestHTTPVerdictErrors(t *testing.T) {
	_, srv := testServer(t, Options{})
	for _, tc := range []struct {
		name, url string
		want      int
	}{
		{"missing key", "/verdict", 400},
		{"malformed key", "/verdict?key=zebra", 400},
		{"unknown alg", "/verdict?key=0,0:1,0&alg=nope", 400},
		{"oversized", "/verdict?key=0,0:1,0:2,0:3,0:4,0:5,0:6,0:7,0:8,0:9,0:10,0:11,0:12,0:13,0:14,0", 400},
	} {
		if resp := getJSON(t, srv.URL+tc.url, nil); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Post(srv.URL+"/verdict", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /verdict status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPSingleFlightBurst: the single-flight guarantee holds through
// the transport — concurrent identical HTTP requests cost one solve.
func TestHTTPSingleFlightBurst(t *testing.T) {
	s, srv := testServer(t, Options{AdvMaxN: 8})
	url := srv.URL + "/verdict?key=0,0:1,0:2,0:3,0:4,0:5,0:6,0:7,0:8,1"
	const burst = 8
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if got := s.SolveCount(""); got != 1 {
		t.Fatalf("%d concurrent HTTP requests performed %d solves, want 1", burst, got)
	}
}

// TestHTTPSweep: POST /sweep streams the internal/dist framed protocol
// — header, per-case lines, trailing summary — for the described sweep.
func TestHTTPSweep(t *testing.T) {
	_, srv := testServer(t, Options{})
	resp, err := http.Post(srv.URL+"/sweep", "application/json", strings.NewReader(`{"n":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 46 { // header + 44 cases + summary
		t.Fatalf("%d lines, want 46", len(lines))
	}
	var header struct {
		Schema int    `json:"schema"`
		Spec   string `json:"spec"`
		Shard  [2]int `json:"shard"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Schema != dist.SchemaVersion || header.Spec == "" || header.Shard != [2]int{0, 44} {
		t.Fatalf("header %+v", header)
	}
	var summary struct {
		EOF   bool `json:"eof"`
		Cases int  `json:"cases"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if !summary.EOF || summary.Cases != 44 {
		t.Fatalf("summary %+v", summary)
	}

	// Malformed and invalid specs are client errors before any stream.
	for _, body := range []string{"{", `{"n":5,"sched":"bogus"}`, `{"n":15}`} {
		resp, err := http.Post(srv.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// An oversized body is refused with 413 and counted as an error,
	// without decoding past the limit: a valid spec behind more than
	// maxSweepBody bytes of leading whitespace.
	s, srv := testServer(t, Options{})
	big := strings.Repeat(" ", maxSweepBody) + `{"n":4}`
	resp, err = http.Post(srv.URL+"/sweep", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if got := s.met.Errors.Value(); got != 1 {
		t.Errorf("errors counter %d after an oversized body, want 1", got)
	}
}

// TestHTTPHealthzAndMetrics: liveness reports table coverage; the
// counters move with traffic.
func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, srv := testServer(t, Options{})
	var health struct {
		Status        string `json:"status"`
		TablePatterns int    `json:"table_patterns"`
	}
	getJSON(t, srv.URL+"/healthz", &health)
	if health.Status != "ok" || health.TablePatterns != TableLen() {
		t.Fatalf("healthz %+v", health)
	}
	getJSON(t, srv.URL+"/verdict?key=0,0:1,0:2,0:0,1:1,1:2,1:1,2", nil)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{"verdictd_requests_total 1", "verdictd_table_hits_total 1", "verdictd_hit_latency_us"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPMetricsGolden pins the /metrics exposition of a fresh
// service byte-for-byte: every series the registry pre-registers, in
// sorted order, before any traffic lands. Any new series, rename, or
// ordering change shows up here first.
func TestHTTPMetricsGolden(t *testing.T) {
	_, srv := testServer(t, Options{})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := "verdictd_cached_total 0\n" +
		"verdictd_errors_total 0\n" +
		"verdictd_hit_latency_us_count 0\n" +
		"verdictd_miss_latency_us_count 0\n" +
		"verdictd_requests_total 0\n" +
		"verdictd_solves_total 0\n" +
		"verdictd_sweeps_total 0\n" +
		"verdictd_table_hits_total 0\n" +
		fmt.Sprintf("verdictd_table_patterns %d\n", TableLen())
	if string(body) != want {
		t.Errorf("fresh /metrics:\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestHTTPMetricsSortedAfterTraffic: once hits, misses and engines
// exist, the exposition stays sorted and carries the latency quantiles
// and the per-engine memo gauges.
func TestHTTPMetricsSortedAfterTraffic(t *testing.T) {
	_, srv := testServer(t, Options{AdvMaxN: 8})
	getJSON(t, srv.URL+"/verdict?key=0,0:1,0:2,0:0,1:1,1:2,1:1,2", nil)
	getJSON(t, srv.URL+"/verdict?key="+strings.ReplaceAll(lineN9Key, ";", ":"), nil)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Errorf("/metrics lines not sorted:\n%s", text)
	}
	for _, want := range []string{
		"verdictd_requests_total 2",
		"verdictd_table_hits_total 1",
		"verdictd_solves_total 1",
		"verdictd_hit_latency_us_count 1",
		`verdictd_hit_latency_us{q="p99"} `,
		`verdictd_memo_states{alg="full"} `,
		`verdictd_flight_records{alg="full"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPGracefulShutdown: Shutdown initiated mid-/sweep lets the
// in-flight stream run to its trailing summary — the drain contract the
// CI serve job also exercises against the real binary.
func TestHTTPGracefulShutdown(t *testing.T) {
	s := newService(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	resp, err := http.Post("http://"+ln.Addr().String()+"/sweep", "application/json", strings.NewReader(`{"n":7}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // header: the stream is live
		t.Fatal(err)
	}

	shutdown := make(chan error, 1)
	go func() { shutdown <- srv.Shutdown(context.Background()) }()

	var last string
	count := 0
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broke mid-drain after %d lines: %v", count, err)
	}
	if !strings.Contains(last, `"eof":true`) || !strings.Contains(last, `"cases":3652`) {
		t.Fatalf("drained stream did not end in the full summary: %q", last)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
}
