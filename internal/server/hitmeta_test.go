package server

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/solcache"
	"repro/internal/solio"
)

// hitmeta_test.go pins the rule that lets a local cache hit skip
// solio.Decode: the metadata stored next to a document is exactly what
// decoding that document recovers.

// entryMatchesDecode fetches key's cache entry from s and checks its
// stored metadata against solio.Decode of its document.
func entryMatchesDecode(t *testing.T, s *Server, key string) solcache.Entry {
	t.Helper()
	e, ok := s.cache.Get(key)
	if !ok {
		t.Fatalf("key %s is not cached", key)
	}
	sol, err := solio.Decode(bytes.NewReader(e.Doc))
	if err != nil {
		t.Fatalf("cached document does not decode: %v", err)
	}
	if e.Metrics != sol.Metrics() {
		t.Fatalf("stored metrics %+v, decode gives %+v", e.Metrics, sol.Metrics())
	}
	if !slices.Equal(e.Degradations, sol.Degradations) {
		t.Fatalf("stored degradations %+v, decode gives %+v", e.Degradations, sol.Degradations)
	}
	return e
}

// TestCacheMetaMatchesDecodeTableI covers all seven Table I benchmarks
// under both flows at Imax 60: the entry a miss stores matches its
// decode, and a later hit reports the miss's metrics with CPU zeroed.
func TestCacheMetaMatchesDecodeTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes all 14 Table I solutions")
	}
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 32})
	var bodies, ids []string
	for _, bm := range benchdata.All() {
		for _, baseline := range []bool{false, true} {
			body := fmt.Sprintf(`{"bench":%q,"baseline":%t,"options":{"imax":60}}`, bm.Name, baseline)
			var sub submitResponse
			if code := postJSON(t, ts.URL, "/v1/synthesize", body, &sub); code != http.StatusAccepted {
				t.Fatalf("%s: status %d, want 202", body, code)
			}
			bodies, ids = append(bodies, body), append(ids, sub.JobID)
		}
	}
	for i, body := range bodies {
		miss := waitTerminal(t, ts.URL, ids[i], 120*time.Second)
		if miss.Status != "done" {
			t.Fatalf("%s: %s (%s)", body, miss.Status, miss.Error)
		}
		e := entryMatchesDecode(t, s, keyOf(t, body))

		var sub submitResponse
		if code := postJSON(t, ts.URL, "/v1/synthesize", body, &sub); code != http.StatusOK || !sub.Cached {
			t.Fatalf("%s: repeat POST status %d cached %v, want a 200 hit", body, code, sub.Cached)
		}
		hit := waitTerminal(t, ts.URL, sub.JobID, time.Second)
		want := *miss.Metrics
		want.CPUMs = 0
		if *hit.Metrics != want || *hit.Metrics != *toMetricsJSON(e.Metrics) {
			t.Fatalf("%s: hit metrics %+v, miss %+v", body, *hit.Metrics, *miss.Metrics)
		}
	}
}

// TestCacheHitJobMatchesDecodePath serves a clean and a degraded
// solution from the cache and compares each hit's GET /v1/jobs/{id}
// body, field for field except ids and timestamps, with a job built the
// way a hit was served before entries carried their metadata: decode
// the document, take its metrics and degradations.
func TestCacheHitJobMatchesDecodePath(t *testing.T) {
	for _, tc := range []struct {
		name    string
		degrade core.Degrade
	}{
		{"clean", core.Degrade{}},
		// A 1 ns anneal budget always overruns, so every synthesis takes
		// the reduced-effort rung, deterministically.
		{"degraded", core.Degrade{PlaceDeadline: time.Nanosecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, Degrade: tc.degrade})
			var sub submitResponse
			if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, &sub); code != http.StatusAccepted {
				t.Fatalf("miss POST: status %d", code)
			}
			if jr := waitTerminal(t, ts.URL, sub.JobID, 60*time.Second); jr.Status != "done" {
				t.Fatalf("miss job: %s (%s)", jr.Status, jr.Error)
			}
			key := keyOf(t, smallReq)
			e := entryMatchesDecode(t, s, key)
			if degraded := len(e.Degradations) > 0; degraded != tc.degrade.Enabled() {
				t.Fatalf("entry degradations %+v with ladder %+v", e.Degradations, tc.degrade)
			}

			if code := postJSON(t, ts.URL, "/v1/synthesize", smallReq, &sub); code != http.StatusOK || !sub.Cached {
				t.Fatalf("hit POST: status %d cached %v", code, sub.Cached)
			}

			res, err := resultFromPeer(key, e.Doc)
			if err != nil {
				t.Fatal(err)
			}
			rec := s.newRecorder("", "")
			rec.Add("cache.probe", "", time.Now(), 0, "hit")
			s.seal(rec, res, routeCacheHit)
			ref, err := s.q.Complete("decode-path", res, "served from cache")
			if err != nil {
				t.Fatal(err)
			}

			got, want := jobBody(t, ts.URL, sub.JobID), jobBody(t, ts.URL, ref)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("hit job body differs from the decode path:\n got  %v\n want %v", got, want)
			}
			if tc.degrade.Enabled() && got["degradations"] == nil {
				t.Fatal("degraded hit reports no degradations")
			}
		})
	}
}

// jobBody fetches GET /v1/jobs/{id} as generic JSON with the fields that
// name the job or the moment drop out: ids, job URLs, trace identity and
// timestamps. Spans keep their node, name and attribute.
func jobBody(t *testing.T, base, id string) map[string]any {
	t.Helper()
	var m map[string]any
	if code := getJSON(t, base, "/v1/jobs/"+id, &m); code != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, code)
	}
	for _, k := range []string{"id", "created", "started", "finished", "solution", "trace", "trace_id"} {
		delete(m, k)
	}
	spans, _ := m["trace_spans"].([]any)
	for _, sp := range spans {
		for _, k := range []string{"trace_id", "id", "parent", "start_us", "dur_us"} {
			delete(sp.(map[string]any), k)
		}
	}
	return m
}
