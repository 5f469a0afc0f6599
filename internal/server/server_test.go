package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/solio"
)

// newTestServer builds a server with a small footprint and registers its
// shutdown with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// postJSON posts body to path and decodes the response into out.
func postJSON(t *testing.T, base, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, base, path string, out any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

// waitTerminal polls a job until it reaches a terminal status.
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) jobResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var jr jobResponse
		if code := getJSON(t, base, "/v1/jobs/"+id, &jr); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch jr.Status {
		case "done", "failed", "canceled":
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v (progress %q)", id, jr.Status, timeout, jr.Progress)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// smallReq is a fast deterministic request used by most tests.
const smallReq = `{"bench":"PCR","options":{"imax":60,"seed":7}}`

// TestCacheServedSolutionIsByteIdentical is the tentpole acceptance
// criterion: the second POST of an identical request is served from the
// cache with the exact bytes a fresh synthesis produced.
func TestCacheServedSolutionIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})

	var first submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, &first); code != http.StatusAccepted {
		t.Fatalf("first POST: status %d", code)
	}
	if first.Cached {
		t.Fatal("first request claimed a cache hit on a cold cache")
	}
	jr := waitTerminal(t, ts.URL, first.JobID, 60*time.Second)
	if jr.Status != "done" {
		t.Fatalf("first job %s: %s (%s)", first.JobID, jr.Status, jr.Error)
	}
	if jr.Stages == nil || jr.Metrics == nil {
		t.Fatalf("finished job missing stages/metrics: %+v", jr)
	}

	fresh := fetchSolution(t, ts.URL, first.JobID)

	var second submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, &second); code != http.StatusOK {
		t.Fatalf("second POST: status %d, want 200 cache hit", code)
	}
	if !second.Cached || second.Status != "done" {
		t.Fatalf("second POST not served from cache: %+v", second)
	}
	if second.JobID == first.JobID {
		t.Fatal("cache hit reused the original job ID")
	}
	cached := fetchSolution(t, ts.URL, second.JobID)

	if !bytes.Equal(fresh, cached) {
		t.Fatalf("cache-served solution differs from fresh synthesis:\n fresh  sha256=%x\n cached sha256=%x",
			sha256.Sum256(fresh), sha256.Sum256(cached))
	}

	// A different seed must miss the cache: the key covers the options.
	var third submitResponse
	other := `{"bench":"PCR","options":{"imax":60,"seed":8}}`
	if code := postJSON(t, ts.URL, "/v1/synthesize", other, &third); code != http.StatusAccepted {
		t.Fatalf("third POST (different seed): status %d, want 202 miss", code)
	}

	var m map[string]json.RawMessage
	if code := getJSON(t, ts.URL, "/metrics.json", &m); code != http.StatusOK {
		t.Fatalf("GET /metrics.json: %d", code)
	}
	var hits, misses int64
	mustNum(t, m, "cache_hits", &hits)
	mustNum(t, m, "cache_misses", &misses)
	if hits < 1 {
		t.Fatalf("metrics report %d cache hits, want >= 1", hits)
	}
	if misses < 2 {
		t.Fatalf("metrics report %d cache misses, want >= 2", misses)
	}
}

func fetchSolution(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/solution")
	if err != nil {
		t.Fatalf("GET solution: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET solution for %s: status %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading solution: %v", err)
	}
	return data
}

func mustNum(t *testing.T, m map[string]json.RawMessage, key string, out *int64) {
	t.Helper()
	raw, ok := m[key]
	if !ok {
		t.Fatalf("/metrics missing %q", key)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("/metrics %q = %s: %v", key, raw, err)
	}
}

// TestCancelMidAnnealReturnsPromptly is the cancellation acceptance
// criterion: a running job with a deliberately long anneal must settle to
// Canceled within a second of the cancel request.
func TestCancelMidAnnealReturnsPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})

	// Imax 100000 is ~670x the published move budget: minutes of
	// annealing, so the job is reliably mid-anneal when we cancel.
	long := `{"bench":"CPA","options":{"imax":100000,"seed":1}}`
	var sub submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", long, &sub); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var jr jobResponse
		getJSON(t, ts.URL, "/v1/jobs/"+sub.JobID, &jr)
		if jr.Status == "running" {
			break
		}
		if jr.Status != "queued" || time.Now().After(deadline) {
			t.Fatalf("job %s is %q, never reached running", sub.JobID, jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let it get into the anneal proper

	var cr struct {
		Canceled bool `json:"canceled"`
	}
	cancelAt := time.Now()
	if code := postJSON(t, ts.URL, "/v1/jobs/"+sub.JobID+"/cancel", "", &cr); code != http.StatusOK || !cr.Canceled {
		t.Fatalf("cancel: status %d, canceled=%v", code, cr.Canceled)
	}
	jr := waitTerminal(t, ts.URL, sub.JobID, 5*time.Second)
	latency := time.Since(cancelAt)
	if jr.Status != "canceled" {
		t.Fatalf("job settled to %q (%s), want canceled", jr.Status, jr.Error)
	}
	if latency > time.Second {
		t.Fatalf("cancellation took %v, want < 1s", latency)
	}
	t.Logf("cancel → canceled in %v", latency)
}

// TestQueueFullBackpressure verifies 429 + Retry-After once the worker is
// busy and the queue is at capacity, and that the rejection is counted.
func TestQueueFullBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})

	long := func(seed int) string {
		return fmt.Sprintf(`{"bench":"CPA","options":{"imax":100000,"seed":%d}}`, seed)
	}
	var running submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", long(1), &running); code != http.StatusAccepted {
		t.Fatalf("first POST: %d", code)
	}
	// Wait until the worker has picked it up so the next job sits alone in
	// the queue.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var jr jobResponse
		getJSON(t, ts.URL, "/v1/jobs/"+running.JobID, &jr)
		if jr.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job stuck in %q", jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var queued submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", long(2), &queued); code != http.StatusAccepted {
		t.Fatalf("second POST: %d", code)
	}

	resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(long(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third POST: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	var m map[string]json.RawMessage
	getJSON(t, ts.URL, "/metrics.json", &m)
	var rejected, depth int64
	mustNum(t, m, "jobs_rejected", &rejected)
	mustNum(t, m, "queue_depth", &depth)
	if rejected != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", rejected)
	}
	if depth != 1 {
		t.Fatalf("queue_depth = %d, want 1", depth)
	}

	// Unblock the cleanup shutdown quickly.
	postJSON(t, ts.URL, "/v1/jobs/"+queued.JobID+"/cancel", "", nil)
	postJSON(t, ts.URL, "/v1/jobs/"+running.JobID+"/cancel", "", nil)
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	cases := []struct {
		name, body string
	}{
		{"no source", `{}`},
		{"two sources", `{"bench":"PCR","protocol":{"kind":"mixing_tree","leaves":4}}`},
		{"unknown bench", `{"bench":"NoSuch"}`},
		{"unknown field", `{"bench":"PCR","imax":10}`},
		{"bad imax", `{"bench":"PCR","options":{"imax":0}}`},
		{"bad portfolio", `{"bench":"PCR","options":{"portfolio":65}}`},
		{"bad tc", `{"bench":"PCR","options":{"tc_s":-1}}`},
		{"bad alloc", `{"bench":"PCR","alloc":"nope"}`},
		{"uncovering alloc", `{"bench":"PCR","alloc":"(0,0,0,1)"}`},
		{"bad protocol kind", `{"protocol":{"kind":"unknown"}}`},
		{"oversize protocol", `{"protocol":{"kind":"mixing_tree","leaves":1073741824}}`},
		{"oversize panel", `{"protocol":{"kind":"multiplex","samples":200,"reagents":200}}`},
		{"bad assay json", `{"assay":{"nope":1}}`},
	}
	for _, tc := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL, "/v1/synthesize", tc.body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		} else if e.Error == "" {
			t.Errorf("%s: 400 without error message", tc.name)
		}
	}

	if code := getJSON(t, ts.URL, "/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL, "/v1/jobs/nope/solution", nil); code != http.StatusNotFound {
		t.Errorf("unknown job solution: status %d, want 404", code)
	}
	if code := postJSON(t, ts.URL, "/v1/jobs/nope/cancel", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown job cancel: status %d, want 404", code)
	}
}

func TestProtocolRequestSynthesizes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	body := `{"protocol":{"kind":"mixing_tree","leaves":4},"options":{"imax":40}}`
	var sub submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", body, &sub); code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	jr := waitTerminal(t, ts.URL, sub.JobID, 60*time.Second)
	if jr.Status != "done" {
		t.Fatalf("protocol job: %s (%s)", jr.Status, jr.Error)
	}
	if jr.Metrics.ExecutionTimeMs <= 0 {
		t.Fatalf("metrics: %+v", jr.Metrics)
	}
}

// TestHeatCycleProtocolSynthesizes covers the "heat_cycle" protocol
// kind end to end: the request builds (HeatCycle needs a source
// operation, which buildProtocol must supply), synthesizes, and the
// served solution passes the independent audit.
func TestHeatCycleProtocolSynthesizes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	body := `{"protocol":{"kind":"heat_cycle","cycles":3},"options":{"imax":40}}`
	var sub submitResponse
	if code := postJSON(t, ts.URL, "/v1/synthesize", body, &sub); code != http.StatusAccepted {
		t.Fatalf("POST: %d", code)
	}
	jr := waitTerminal(t, ts.URL, sub.JobID, 60*time.Second)
	if jr.Status != "done" {
		t.Fatalf("heat_cycle job: %s (%s)", jr.Status, jr.Error)
	}
	sol, err := solio.Decode(bytes.NewReader(fetchSolution(t, ts.URL, sub.JobID)))
	if err != nil {
		t.Fatal(err)
	}
	if n := sol.Assay.NumOps(); n != 7 {
		t.Fatalf("assay has %d operations, want a source mix and 3 heat/mix cycles", n)
	}
	if rep := core.Audit(sol); !rep.OK() {
		t.Fatalf("served heat_cycle solution fails the audit:\n%s", rep)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	var h struct {
		Status  string  `json:"status"`
		UptimeS float64 `json:"uptime_s"`
	}
	if code := getJSON(t, ts.URL, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h.Status != "ok" || h.UptimeS < 0 {
		t.Fatalf("healthz body: %+v", h)
	}
}

// TestSolutionBeforeDone covers the 409 on polling a solution too early:
// the job here is queued behind a busy worker.
func TestSolutionBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	long := `{"bench":"CPA","options":{"imax":100000,"seed":3}}`
	var a, b submitResponse
	postJSON(t, ts.URL, "/v1/synthesize", long, &a)
	postJSON(t, ts.URL, "/v1/synthesize", `{"bench":"CPA","options":{"imax":100000,"seed":4}}`, &b)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + b.JobID + "/solution")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("solution of queued job: status %d, want 409", resp.StatusCode)
	}
	postJSON(t, ts.URL, "/v1/jobs/"+b.JobID+"/cancel", "", nil)
	postJSON(t, ts.URL, "/v1/jobs/"+a.JobID+"/cancel", "", nil)
}
