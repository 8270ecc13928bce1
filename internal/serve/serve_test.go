package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/point"
)

// smallResult is a once-computed real simulation result the fake
// execution seams hand back, so response bodies are genuine canonical
// documents without paying for a full dataset point per request.
var (
	smallOnce sync.Once
	smallRes  *core.Result
)

func smallResult(t *testing.T) *core.Result {
	t.Helper()
	smallOnce.Do(func() {
		g, err := graph.GenerateUniform(256, 1024, 42)
		if err != nil {
			panic(err)
		}
		w := core.Workload{
			DatasetName: "test",
			Graph:       g,
			Program:     algo.NewPageRank(),
		}
		smallRes, err = core.Simulate(core.HyVE(), w)
		if err != nil {
			panic(err)
		}
	})
	if smallRes == nil {
		t.Fatal("small reference simulation failed")
	}
	return smallRes
}

// smallDoc is smallResult's canonical document, what a fake execution
// seam answers with.
func smallDoc(t *testing.T) []byte {
	t.Helper()
	doc, err := cache.EncodeResult(smallResult(t))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// newTestServer builds a Server with generous admission defaults and an
// instant fake execution seam (override srv.simulate for other shapes).
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Rate == 0 {
		cfg.Rate = 1e6
	}
	if cfg.Burst == 0 {
		cfg.Burst = 1 << 20
	}
	srv := New(cfg)
	doc := smallDoc(t)
	srv.simulate = func(context.Context, point.Spec) ([]byte, cache.Digest, error) {
		return doc, cache.Digest{}, nil
	}
	return srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServedPointMatchesDirectSimulate is the wire-identity acceptance
// test: every path a point's bytes leave by must give byte-for-byte the
// canonical document of a direct core.Simulate of the same point — a
// served miss, a served hit, a /sweep point event, point.Run on the
// server's scheduler and a disk hit on a fresh scheduler — and the
// served digest header is the point's PointDigest.
func TestServedPointMatchesDirectSimulate(t *testing.T) {
	// Real execution path, cache with a disk store.
	dir := t.TempDir()
	srv := New(Config{Sched: cache.New(cache.Config{Dir: dir}), Rate: 1e6, Burst: 1 << 20})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/point", PointRequest{Dataset: "YT", Algo: "PR", Config: "sd"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}

	spec := point.Spec{Dataset: "YT", Algo: "PR", Config: "sd"}
	cfg, w, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cache.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("served body differs from direct simulation:\nserved %d bytes: %.120s\ndirect %d bytes: %.120s",
			len(body), body, len(want), want)
	}

	digest, err := cache.PointDigest(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Hyve-Point-Digest"); got != digest.String() {
		t.Errorf("digest header = %q, want %q", got, digest.String())
	}
	runID := resp.Header.Get("X-Hyve-Run-Id")
	if _, err := ParseRunID(runID); err != nil || len(runID) != 16 {
		t.Errorf("run id header %q is not a 16-hex-digit snowflake: %v", runID, err)
	}

	// A repeat of the same point is a cache hit with identical bytes.
	resp2 := postJSON(t, ts.URL+"/point", PointRequest{Dataset: "YT", Algo: "PR", Config: "sd"})
	body2 := readAll(t, resp2)
	if !bytes.Equal(body, body2) {
		t.Error("repeated point served different bytes")
	}
	if got := resp2.Header.Get("X-Hyve-Point-Digest"); got != digest.String() {
		t.Errorf("hit digest header = %q, want %q", got, digest.String())
	}
	if st := srv.sched.Stats(); st.MemHits == 0 {
		t.Errorf("repeat point did not hit the cache: %+v", st)
	}

	// A /sweep point event carries the same document; the stream
	// compacts each raw result, dropping its trailing newline.
	resp3 := postJSON(t, ts.URL+"/sweep", SweepRequest{Sweep: point.Sweep{
		Datasets: []string{"YT"}, Algos: []string{"PR"}, Configs: []string{"sd"},
	}})
	evs := decodeSweepEvents(t, readAll(t, resp3))
	if len(evs) != 3 || evs[1].Event != "point" || evs[1].Digest != digest.String() {
		t.Fatalf("sweep events: %+v", evs)
	}
	if !bytes.Equal(append(bytes.TrimRight(evs[1].Result, "\n"), '\n'), want) {
		t.Error("sweep point event differs from direct simulation")
	}

	// point.Run on the server's scheduler, and on a fresh scheduler that
	// can only find the point on disk.
	for _, sched := range []*cache.Scheduler{srv.sched, cache.New(cache.Config{Dir: dir})} {
		doc, d, err := point.Run(context.Background(), sched, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc, want) || d != digest {
			t.Errorf("point.Run: document equal %v, digest %s, want %s", bytes.Equal(doc, want), d, digest)
		}
		if st := sched.Stats(); st.Executed+st.DiskHits != 1 {
			t.Errorf("point.Run stats %+v: want the one execution or one disk hit", st)
		}
	}
}

// TestNilSchedMeansNoCache pins the one meaning of a nil scheduler: the
// zero Config serves every point by executing it, with no cache built
// behind the caller's back, and a repeat still answers identical bytes.
func TestNilSchedMeansNoCache(t *testing.T) {
	srv := New(Config{Rate: 1e6, Burst: 1 << 20})
	if srv.sched != nil {
		t.Fatal("New(Config{}) built a scheduler; nil must mean no cache")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := PointRequest{Dataset: "YT", Algo: "PR", Config: "sd"}
	resp := postJSON(t, ts.URL+"/point", req)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	resp2 := postJSON(t, ts.URL+"/point", req)
	body2 := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body, body2) {
		t.Errorf("repeated point: status %d, bytes differ: %v", resp2.StatusCode, !bytes.Equal(body, body2))
	}
	// With no cache the point is still named by its digest.
	for _, r := range []*http.Response{resp, resp2} {
		if got := r.Header.Get("X-Hyve-Point-Digest"); len(got) != 64 {
			t.Errorf("digest header %q with a nil scheduler, want 64 hex digits", got)
		}
	}
}

func TestPointValidation(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		req  PointRequest
		want int
	}{
		{PointRequest{Dataset: "NOPE", Algo: "PR", Config: "sd"}, http.StatusBadRequest},
		{PointRequest{Dataset: "YT", Algo: "NOPE", Config: "sd"}, http.StatusBadRequest},
		{PointRequest{Dataset: "YT", Algo: "PR", Config: "cpu"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/point", c.req)
		readAll(t, resp)
		if resp.StatusCode != c.want {
			t.Errorf("%+v: status = %d, want %d", c.req, resp.StatusCode, c.want)
		}
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/point", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT status = %d, want 405", resp.StatusCode)
	}
}

// TestInvalidSRAMKeepsBreakerClosed: an sram_mb whose byte count
// overflows is the client's error, rejected with 400 at parse time. It
// never reaches execution, so the dataset's breaker never counts it and
// a valid request right after is served.
func TestInvalidSRAMKeepsBreakerClosed(t *testing.T) {
	srv := New(Config{Rate: 1e6, Burst: 1 << 20}) // real execution path
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := PointRequest{Dataset: "YT", Algo: "PR", Config: "hyve", SRAMMB: 1 << 44}
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/point", bad)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("overflowing sram_mb request %d status = %d, want 400 (body %s)", i, resp.StatusCode, body)
		}
	}
	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{Sweep: point.Sweep{
		Datasets: []string{"YT"}, Algos: []string{"PR"}, Configs: []string{"hyve"}, SRAMMB: -1,
	}})
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative sram_mb sweep status = %d, want 400", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/point", PointRequest{Dataset: "YT", Algo: "PR", Config: "hyve"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid request after bad ones status = %d, want 200 (body %s)", resp.StatusCode, body)
	}
}

// TestQueryNumbersStrict: GET integer parameters must parse whole, and
// sram_mb must obey the SRAM rule; anything else is a 400, never a
// silently defaulted or truncated value.
func TestQueryNumbersStrict(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"sram_mb=4", http.StatusOK},
		{"sram_mb=0", http.StatusOK},
		{"timeout_ms=30000", http.StatusOK},
		{"sram_mb=abc", http.StatusBadRequest},
		{"sram_mb=-4", http.StatusBadRequest},
		{"sram_mb=12abc", http.StatusBadRequest},
		{"sram_mb=17592186044416", http.StatusBadRequest},
		{"sram_mb=99999999999999999999", http.StatusBadRequest},
		{"timeout_ms=abc", http.StatusBadRequest},
		{"timeout_ms=5s", http.StatusBadRequest},
	} {
		for _, path := range []string{
			"/point?dataset=YT&algo=PR&config=sd&",
			"/sweep?datasets=YT&algos=PR&configs=sd&",
		} {
			resp, err := http.Get(ts.URL + path + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != tc.want {
				t.Errorf("GET %s%s: status = %d, want %d (body %s)", path, tc.query, resp.StatusCode, tc.want, body)
			}
		}
	}
}

// TestOverloadRejectsWith429 pins the admission contract: past the
// token budget, requests get 429 with a Retry-After hint instead of
// queueing without bound.
func TestOverloadRejectsWith429(t *testing.T) {
	srv := newTestServer(t, Config{Rate: 0.001, Burst: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/point", PointRequest{Dataset: "YT", Algo: "PR", Config: "sd"})
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/point", PointRequest{Dataset: "YT", Algo: "PR", Config: "sd"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After header")
	}
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.RetryAfterMS <= 0 {
		t.Errorf("429 body %s lacks a positive retry_after_ms", body)
	}

	// A sweep spends one token per point: 2 points > burst of 1.
	resp = postJSON(t, ts.URL+"/sweep", SweepRequest{Sweep: point.Sweep{
		Datasets: []string{"YT"}, Algos: []string{"PR", "BFS"}, Configs: []string{"sd"},
	}})
	readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("oversized sweep status = %d, want 429", resp.StatusCode)
	}
}

// TestBreakerOpensPerDataset pins the breaker contract: consecutive
// failures on one dataset trip a 503 for that dataset only.
func TestBreakerOpensPerDataset(t *testing.T) {
	srv := newTestServer(t, Config{BreakerFailures: 2, BreakerCooldown: time.Minute})
	srv.simulate = func(context.Context, point.Spec) ([]byte, cache.Digest, error) {
		return nil, cache.Digest{}, errors.New("simulated execution failure")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/point", PointRequest{Dataset: "YT", Algo: "PR", Config: "sd"})
		readAll(t, resp)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing request %d status = %d, want 500", i, resp.StatusCode)
		}
	}

	resp := postJSON(t, ts.URL+"/point", PointRequest{Dataset: "YT", Algo: "PR", Config: "sd"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped-breaker status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker 503 carried no Retry-After header")
	}
	if !strings.Contains(string(body), "circuit breaker") {
		t.Errorf("breaker 503 body %s does not name the breaker", body)
	}

	// Another dataset's breaker is untouched: its request is admitted
	// (and fails on execution with 500, not rejected with 503).
	resp = postJSON(t, ts.URL+"/point", PointRequest{Dataset: "WK", Algo: "PR", Config: "sd"})
	readAll(t, resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("other-dataset status = %d, want 500 (independent breaker)", resp.StatusCode)
	}
}

// decodeSweepEvents parses an NDJSON response body.
func decodeSweepEvents(t *testing.T, body []byte) []SweepEvent {
	t.Helper()
	var evs []SweepEvent
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func TestSweepStreamsOrderedEvents(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{Sweep: point.Sweep{
		Datasets: []string{"YT"}, Algos: []string{"PR", "BFS"}, Configs: []string{"sd", "dram"},
	}})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	evs := decodeSweepEvents(t, body)
	if len(evs) != 6 { // start + 4 points + done
		t.Fatalf("got %d events, want 6: %+v", len(evs), evs)
	}
	if evs[0].Event != "start" || evs[0].Points != 4 {
		t.Errorf("first event = %+v, want start with 4 points", evs[0])
	}
	want, _ := cache.EncodeResult(smallResult(t))
	wantOrder := [][3]string{
		{"YT", "PR", "sd"}, {"YT", "PR", "dram"},
		{"YT", "BFS", "sd"}, {"YT", "BFS", "dram"},
	}
	for i, ev := range evs[1:5] {
		if ev.Event != "point" || ev.Index == nil || *ev.Index != i {
			t.Fatalf("event %d = %+v, want point with index %d (dataset-major order)", i, ev, i)
		}
		if got := [3]string{ev.Dataset, ev.Algo, ev.Config}; got != wantOrder[i] {
			t.Errorf("point %d coordinates = %v, want %v", i, got, wantOrder[i])
		}
		if !bytes.Equal(append(bytes.TrimRight(ev.Result, "\n"), '\n'), want) {
			t.Errorf("point %d result is not the canonical document", i)
		}
	}
	last := evs[5]
	if last.Event != "done" || last.Completed != 4 || last.Errors != 0 || last.Aborted {
		t.Errorf("final event = %+v, want clean done with 4 completed", last)
	}
	if last.RunID != resp.Header.Get("X-Hyve-Run-Id") {
		t.Errorf("done event run id %q != header %q", last.RunID, resp.Header.Get("X-Hyve-Run-Id"))
	}
}

func TestSweepStreamsPointErrors(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1}) // serial: call order == index order
	var calls atomic.Int64
	doc := smallDoc(t)
	srv.simulate = func(context.Context, point.Spec) ([]byte, cache.Digest, error) {
		if calls.Add(1) == 2 {
			return nil, cache.Digest{}, errors.New("point 1 exploded")
		}
		return doc, cache.Digest{}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/sweep", SweepRequest{Sweep: point.Sweep{
		Datasets: []string{"YT"}, Algos: []string{"PR", "BFS"}, Configs: []string{"sd"},
	}})
	body := readAll(t, resp)
	evs := decodeSweepEvents(t, body)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4: %s", len(evs), body)
	}
	if evs[1].Event != "point" {
		t.Errorf("event for index 0 = %+v, want point", evs[1])
	}
	if evs[2].Event != "error" || !strings.Contains(evs[2].Error, "exploded") {
		t.Errorf("event for index 1 = %+v, want the execution error", evs[2])
	}
	if done := evs[3]; done.Completed != 1 || done.Errors != 1 {
		t.Errorf("done = %+v, want 1 completed / 1 error", done)
	}
}

// TestGracefulDrain pins the drain contract: a draining server rejects
// new work with 503 while every already-admitted request runs to
// completion and delivers its full response — zero dropped in flight.
func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	srv := newTestServer(t, Config{})
	doc := smallDoc(t)
	srv.simulate = func(context.Context, point.Spec) ([]byte, cache.Digest, error) {
		close(started)
		<-gate
		return doc, cache.Digest{}, nil
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type reply struct {
		code int
		body []byte
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/point", "application/json",
			strings.NewReader(`{"dataset":"YT","algo":"PR","config":"sd"}`))
		if err != nil {
			inflight <- reply{code: -1}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- reply{code: resp.StatusCode, body: b}
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	waitUntil(t, "server to enter draining", srv.Draining)

	// New work is refused while the admitted request still runs.
	resp := postJSON(t, ts.URL+"/point", PointRequest{Dataset: "YT", Algo: "PR", Config: "sd"})
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain status = %d, want 503", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(hb), "draining") {
		t.Errorf("healthz during drain = %d %s, want 503 draining", resp.StatusCode, hb)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a request still in flight", err)
	default:
	}

	close(gate)
	r := <-inflight
	if r.code != http.StatusOK || !bytes.Equal(r.body, doc) {
		t.Errorf("in-flight request finished %d with %d bytes; want 200 with the full canonical body", r.code, len(r.body))
	}
	if err := <-drained; err != nil {
		t.Errorf("drain returned %v after the last request finished", err)
	}
	if n := srv.Inflight(); n != 0 {
		t.Errorf("inflight after drain = %d, want 0", n)
	}

	// An expiring drain context reports how much it abandoned.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("drain of an idle server must succeed even with a dead context, got %v", err)
	}
}

// TestClientCancelAbortsCleanly is the kill-mid-request test: a client
// disconnect mid-execution aborts the request without leaving a
// half-made cache entry, and the on-disk store stays valid for the
// next process.
func TestClientCancelAbortsCleanly(t *testing.T) {
	dir := t.TempDir()
	sched := cache.New(cache.Config{Dir: dir})
	srv := New(Config{Sched: sched, Rate: 1e6, Burst: 1 << 20})
	inner := srv.simulate
	started := make(chan struct{})
	var once sync.Once
	srv.simulate = func(ctx context.Context, spec point.Spec) ([]byte, cache.Digest, error) {
		// First call: hold the point at the scheduler's door until the
		// server has observed the client disconnect, so the abort path
		// (not a completed execution) is what's under test.
		once.Do(func() { close(started); <-ctx.Done() })
		return inner(ctx, spec)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	point := `{"dataset":"YT","algo":"PR","config":"sd"}`
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/point", strings.NewReader(point))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancel() // client walks away mid-request
	if err := <-errc; err == nil {
		t.Fatal("cancelled client request reported success")
	}
	waitUntil(t, "aborted request to unwind", func() bool { return srv.Inflight() == 0 })
	if st := sched.Stats(); st.Executed != 0 {
		t.Fatalf("aborted request executed %d point(s); the abort was not clean", st.Executed)
	}

	// The same point served fresh afterwards succeeds and persists.
	resp := postJSON(t, ts.URL+"/point", PointRequest{Dataset: "YT", Algo: "PR", Config: "sd"})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-abort request status = %d, body %s", resp.StatusCode, body)
	}

	// A fresh scheduler over the same directory must read the entry
	// back — the store holds a complete, decodable document, never a
	// torn one.
	d, _ := graph.DatasetByName("YT")
	p, _ := algo.ByName("PR")
	w, err := core.WorkloadFor(d, p)
	if err != nil {
		t.Fatal(err)
	}
	sched2 := cache.New(cache.Config{Dir: dir})
	res, err := sched2.SimulateCtx(context.Background(), core.SRAMDRAM(), w)
	if err != nil {
		t.Fatal(err)
	}
	if st := sched2.Stats(); st.DiskHits != 1 || st.Executed != 0 {
		t.Errorf("fresh scheduler stats = %+v, want one disk hit and zero executions", st)
	}
	got, _ := cache.EncodeResult(res)
	if !bytes.Equal(got, body) {
		t.Error("disk-restored result differs from the served bytes")
	}
}

// TestRegisterMetricsFamilies pins the exposition contract: every
// hyve_serve_* family announces at startup, lints clean, and
// serve.inflight is typed as a gauge.
func TestRegisterMetricsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	doc, errs := obs.LintProm(bytes.NewReader(buf.Bytes()))
	for _, e := range errs {
		t.Errorf("lint: %v", e)
	}
	for _, fam := range []string{
		"hyve_serve_requests_admitted_total",
		"hyve_serve_requests_rejected_total",
		"hyve_serve_breaker_rejected_total",
		"hyve_serve_breaker_open",
		"hyve_serve_inflight",
		"hyve_serve_points_served_total",
		"hyve_serve_drains_total",
	} {
		if _, ok := doc.Types[fam]; !ok {
			t.Errorf("family %s absent from a fresh registration:\n%s", fam, buf.String())
		}
	}
	if typ := doc.Types["hyve_serve_inflight"]; typ != "gauge" {
		t.Errorf("hyve_serve_inflight typed %q, want gauge (it counts down)", typ)
	}
}

// TestHealthzOK is the smoke probe contract.
func TestHealthzOK(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz = %d %s, want 200 ok", resp.StatusCode, body)
	}
}

// TestPointGETQueryParams pins the curl-friendly GET form.
func TestPointGETQueryParams(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/point?dataset=YT&algo=PR&config=sd")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET point = %d, body %s", resp.StatusCode, body)
	}
	want, _ := cache.EncodeResult(smallResult(t))
	if !bytes.Equal(body, want) {
		t.Error("GET body is not the canonical result document")
	}
}
