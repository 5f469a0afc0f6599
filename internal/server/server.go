// Package server implements mfserved's HTTP API: a concurrent synthesis
// service in front of the paper's deterministic pipeline.
//
//	POST /v1/synthesize        submit a synthesis request → job ID (202),
//	                           cache hit → completed job (200),
//	                           queue full → backpressure (429)
//	GET  /v1/jobs/{id}          job status, progress and metrics
//	GET  /v1/jobs/{id}/solution the solio-serialized solution document
//	POST /v1/jobs/{id}/cancel   cancel a queued or running job
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text-format counters and histograms
//	GET  /metrics.json          the same state as expvar JSON
//
// Determinism is load-bearing: the synthesis flow is a pure function of
// (assay, allocation, options, algorithm), so results are stored in a
// content-addressed cache and a cache-served solution is byte-identical
// to a freshly synthesized one. To keep the served document itself pure,
// the solution's wall-clock CPU field is zeroed before serialization;
// per-run timing lives in the job record and the /metrics histograms.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/jobq"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/solcache"
	"repro/internal/solio"
)

// Config sizes the service. Zero values select sane defaults.
type Config struct {
	// Workers is the synthesis worker-pool size (default: NumCPU).
	Workers int
	// QueueCap bounds the FIFO of waiting jobs (default 64); beyond it
	// POST /v1/synthesize returns 429.
	QueueCap int
	// CacheBytes bounds the content-addressed result cache (default 256 MiB).
	CacheBytes int64
	// JobTimeout is the per-job synthesis deadline (default 120 s;
	// negative disables).
	JobTimeout time.Duration
	// Retain bounds how many finished jobs stay pollable (default 4096).
	Retain int
	// Logger receives the structured request and job logs. Nil discards
	// them (the default for tests and embedded use).
	Logger *slog.Logger

	// SubmitRetries is how many times a synthesis submission retries a
	// full queue before giving up with 429 (default 2; negative disables
	// retries). Each retry backs off SubmitBackoff, doubling.
	SubmitRetries int
	// SubmitBackoff is the base delay between submit retries (default 20 ms).
	SubmitBackoff time.Duration
	// BreakerThreshold opens the load-shedding circuit breaker after this
	// many consecutive submissions exhausted their retries against a full
	// queue (default 16; negative disables the breaker). While open,
	// submissions are shed with 503 without touching the queue.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// a probe request (default 2 s).
	BreakerCooldown time.Duration
	// JournalPath, when set, enables the crash-safe job journal: accepted
	// synthesis requests are appended there before entering the queue and
	// marked terminal when they finish, and on startup any
	// accepted-but-unfinished requests from a previous process are
	// resubmitted. Empty disables journaling.
	JournalPath string
	// Degrade is the degradation ladder applied to every synthesis job
	// (see core.Degrade). It is process-wide configuration, not request
	// content, so it is deliberately outside the cache key: all jobs of
	// one process share it, and the zero value (the default) changes
	// nothing about the pipeline.
	Degrade core.Degrade
	// Fault is the fault-injection plan threaded through the handler, the
	// queue, the cache and every synthesis job. Nil (the default) injects
	// nothing and adds no overhead.
	Fault *fault.Plan
	// Cluster, when set, makes this server one node of a shared-nothing
	// cluster (see internal/cluster): a consistent-hash ring keyed on the
	// solution-cache key routes each request to an owner node, local cache
	// misses read through peers before synthesizing, and the peer-cache
	// endpoints (/v1/peer/solution/{key}) are registered. Nil (the
	// default) runs a plain single-node server with zero overhead.
	Cluster *cluster.Cluster
	// SLO is the set of latency objectives the service grades itself
	// against (see obs.ParseSLO). Nil disables the SLO layer and its
	// metric families entirely.
	SLO *obs.SLOSet
	// FlightRecords sizes the request flight recorder's ring (default
	// 256). The recorder is always on — it is one mutex-guarded copy per
	// terminal request — and serves /debug/requests.
	FlightRecords int
}

// Server is the service state: worker pool, cache and metrics.
type Server struct {
	cfg     Config
	q       *jobq.Queue
	cache   *solcache.Cache
	mux     *http.ServeMux
	handler http.Handler // mux wrapped with request-ID logging
	start   time.Time
	metrics *metrics
	log     *slog.Logger
	agg     *obs.Aggregate // algorithm telemetry folded across all jobs
	reqSeq  atomic.Uint64  // server-assigned request IDs
	flt     *fault.Plan    // nil when fault injection is off
	brk     *breaker.Breaker
	cl      *cluster.Cluster // nil outside cluster mode

	// Request tracing and postmortem state. entropy makes span-ID
	// prefixes unique across nodes; node is this node's name in spans
	// (the cluster self URL, or "local").
	slo        *obs.SLOSet
	flight     *obs.FlightRecorder
	entropy    string
	node       string
	traceSeq   atomic.Uint64
	spansTotal atomic.Int64 // spans recorded across all requests

	// Crash-safe journal state. jobEntry maps live queue job IDs to their
	// journal entry IDs; earlyTerm stashes terminal outcomes that arrived
	// before the submit path could register the mapping (a fast worker can
	// finish a job before SubmitLabeled's caller resumes).
	jnl       *journal.Journal
	jmu       sync.Mutex
	jobEntry  map[string]string
	earlyTerm map[string]string
	replayed  atomic.Int64

	// Chip-session state (see internal/session): long-lived pinned
	// solutions repaired in place against fault reports. sessions maps
	// session ID to its entry; sessSeq numbers server-assigned IDs.
	smu      sync.Mutex
	sessions map[string]*sessionEntry
	sessSeq  atomic.Uint64
	sessSem  chan struct{} // bounds inline session-create syntheses to the pool size
}

// jobResult is what a synthesis job stores in the queue on success.
type jobResult struct {
	key          string
	cached       bool
	peer         string // cluster peer that produced/served the solution, if any
	solution     []byte // canonical solio document
	metrics      core.Metrics
	stages       core.StageTimes
	degradations []core.Degradation
	trace        string     // trace ID, "" when the request wasn't traced
	route        string     // how the request was answered (route* consts)
	spans        []obs.Span // the request's merged trace timeline
}

// Route values: how a request was answered. They name the flight
// recorder's Route field, the root span's attribute and the
// mfserved_requests_routed_total label.
const (
	routeCacheHit  = "cache-hit"
	routePeerHit   = "peer-hit"
	routeLocal     = "local"
	routeForwarded = "forwarded"
	routeFallback  = "fallback"
	// Session routes: opening a chip session and repairing one against a
	// fault report. Distinct labels keep /debug/requests attribution and
	// the routed-requests counter honest about which traffic is long-lived
	// session work rather than one-shot synthesis.
	routeSession       = "session"
	routeSessionRepair = "session-repair"
)

// New builds a server and starts its worker pool. Call Shutdown to drain.
// The only error source is the job journal: an unreadable or unwritable
// JournalPath refuses to start rather than silently running without
// crash safety.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 120 * time.Second
	}
	if cfg.SubmitRetries == 0 {
		cfg.SubmitRetries = 2
	}
	if cfg.SubmitBackoff <= 0 {
		cfg.SubmitBackoff = 20 * time.Millisecond
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 16
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:       cfg,
		q:         jobq.New(cfg.Workers, cfg.QueueCap, cfg.Retain),
		cache:     solcache.New(cfg.CacheBytes),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		log:       log,
		agg:       &obs.Aggregate{},
		flt:       cfg.Fault,
		brk:       breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown, nil),
		cl:        cfg.Cluster,
		slo:       cfg.SLO,
		flight:    obs.NewFlightRecorder(cfg.FlightRecords),
		entropy:   nodeEntropy(),
		node:      "local",
		jobEntry:  make(map[string]string),
		earlyTerm: make(map[string]string),
		sessions:  make(map[string]*sessionEntry),
		sessSem:   make(chan struct{}, cfg.Workers),
	}
	if s.cl != nil {
		s.node = s.cl.Self()
	}
	s.q.SetFault(s.flt)
	s.cache.SetFault(s.flt)
	s.metrics = newMetrics(s)
	s.q.OnTerminal(func(j jobq.Job) {
		lvl := slog.LevelInfo
		attrs := []any{
			"job", j.ID,
			"request_id", j.Label,
			"status", string(j.Status),
			"dur_ms", float64(j.Finished.Sub(j.Started).Microseconds()) / 1000,
			"err", j.Err,
		}
		if j.Status == jobq.Failed {
			lvl = slog.LevelWarn
			if j.Stack != "" {
				attrs = append(attrs, "stack", j.Stack)
			}
		}
		s.log.Log(context.Background(), lvl, "job finished", attrs...)
		s.recordTerminal(j)
		s.journalOutcome(j)
	})
	if cfg.JournalPath != "" {
		jnl, pending, torn, err := journal.Open(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.jnl = jnl
		if torn > 0 {
			s.log.Warn("journal had torn lines", "path", cfg.JournalPath, "torn", torn)
		}
		s.replay(pending)
	}
	s.mux.HandleFunc("POST /v1/synthesize", s.handleSynthesize)
	s.mux.HandleFunc("POST /v1/synthesize/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /v1/sessions/{id}/faults", s.handleSessionFault)
	s.mux.HandleFunc("POST /v1/sessions/{id}/close", s.handleSessionClose)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /v1/jobs/{id}/solution", s.handleSolution)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetrics)
	if s.cl != nil {
		s.mux.HandleFunc("GET /v1/peer/solution/{key}", s.handlePeerGet)
		s.mux.HandleFunc("PUT /v1/peer/solution/{key}", s.handlePeerPut)
	}
	s.handler = s.withRequestLog(s.mux)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Listener timeouts of the API's http.Server. A client must finish its
// request headers within ReadHeaderTimeout, so one that trickles them
// cannot pin a connection forever. A kept-alive connection may sit idle
// for IdleTimeout between requests, long enough that a steady client's
// connections are reused rather than redialed.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 120 * time.Second
)

// NewHTTPServer returns the http.Server the API is served with: h behind
// the listener timeouts.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// Shutdown stops accepting jobs and drains the worker pool (see
// jobq.Queue.Shutdown), then closes the journal. Jobs the drain cuts off
// stay pending in the journal and are resubmitted by the next process.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.q.Shutdown(ctx)
	if s.jnl != nil {
		if cerr := s.jnl.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// journalOutcome records a job's terminal status in the journal. Cache
// hits were never journaled (nothing is lost if they vanish); for the
// rest, a terminal that races ahead of the submit path's registration is
// stashed until registerJournal claims it.
func (s *Server) journalOutcome(j jobq.Job) {
	if s.jnl == nil {
		return
	}
	if res, ok := j.Result.(*jobResult); ok && res.cached {
		return
	}
	s.jmu.Lock()
	entry, ok := s.jobEntry[j.ID]
	if !ok {
		s.earlyTerm[j.ID] = string(j.Status)
		s.jmu.Unlock()
		return
	}
	delete(s.jobEntry, j.ID)
	s.jmu.Unlock()
	s.journalTerminal(entry, string(j.Status))
}

// registerJournal links a queue job to its journal entry, or — if the
// job already finished — writes the stashed terminal record now.
func (s *Server) registerJournal(jobID, entry string) {
	if s.jnl == nil {
		return
	}
	s.jmu.Lock()
	if status, done := s.earlyTerm[jobID]; done {
		delete(s.earlyTerm, jobID)
		s.jmu.Unlock()
		s.journalTerminal(entry, status)
		return
	}
	s.jobEntry[jobID] = entry
	s.jmu.Unlock()
}

// journalTerminal writes a terminal record, logging rather than failing:
// at worst the job replays after a crash, and replay is idempotent.
func (s *Server) journalTerminal(entry, status string) {
	if err := s.jnl.Terminal(entry, status); err != nil {
		s.log.Warn("journal terminal write failed", "entry", entry, "status", status, "err", err)
	}
}

// replay resubmits the journal's pending records from a previous
// process. A record that no longer parses or resolves is closed out as
// "unreplayable"; one the (startup-empty) queue cannot take is closed as
// "rejected". Either way every accepted job reaches a terminal record.
func (s *Server) replay(pending []journal.Record) {
	for _, rec := range pending {
		if strings.HasPrefix(rec.Label, sessionLabelPrefix) {
			// Session records replay synchronously, in file order: a
			// session's create record precedes its fault reports, and
			// repairs are deterministic, so replay reconverges on the
			// exact pre-crash session state.
			s.replaySessionRecord(rec)
			continue
		}
		var sreq SynthesizeRequest
		req, err := func() (*request, error) {
			dec := json.NewDecoder(bytes.NewReader(rec.Request))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&sreq); err != nil {
				return nil, err
			}
			return resolve(&sreq)
		}()
		if err != nil {
			s.log.Warn("journal replay: unreplayable record", "entry", rec.ID, "err", err)
			s.journalTerminal(rec.ID, "unreplayable")
			continue
		}
		id, err := s.q.SubmitLabeled(rec.Label, s.synthesisJob(req, rec.Label, s.newRecorder("", ""), time.Now()))
		if err != nil {
			s.log.Warn("journal replay: resubmit failed", "entry", rec.ID, "err", err)
			s.journalTerminal(rec.ID, "rejected")
			continue
		}
		s.registerJournal(id, rec.ID)
		s.replayed.Add(1)
		s.log.Info("journal replay: resubmitted job", "entry", rec.ID, "job", id, "request_id", rec.Label)
	}
}

// submitWithRetry pushes a job into the queue, absorbing transient
// overflow with exponential backoff before surfacing ErrQueueFull.
func (s *Server) submitWithRetry(ctx context.Context, label string, fn jobq.Fn) (string, error) {
	var id string
	var err error
	for attempt := 0; ; attempt++ {
		id, err = s.q.SubmitLabeled(label, fn)
		if !errors.Is(err, jobq.ErrQueueFull) || attempt >= s.cfg.SubmitRetries {
			return id, err
		}
		select {
		case <-ctx.Done():
			return "", err
		case <-time.After(s.cfg.SubmitBackoff << attempt):
		}
	}
}

// writeJSON writes v with the given status code. The body is staged in a
// pooled buffer: one Write call, a correct Content-Length, and no
// per-response buffer garbage.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprintf("%d", buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// writeErr writes a JSON error body.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// submitResponse is the body of POST /v1/synthesize.
type submitResponse struct {
	JobID  string `json:"job_id"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	// Peer is the cluster node whose cache served this response, when the
	// hit came from read-through peering rather than the local cache.
	Peer string `json:"peer,omitempty"`
	// Job is the polling URL for the created job.
	Job string `json:"job"`
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.metrics.histRequest.observe(time.Since(start)) }()

	// The raw body is kept because an accepted request is journaled
	// verbatim: replay after a crash re-decodes exactly what the client
	// sent, not a re-serialization that might drift. It lives in a pooled
	// buffer: the journal append copies synchronously and json.RawMessage
	// fields copy out of the decoder, so nothing aliases body once the
	// handler returns.
	bodyBuf := getBuf()
	defer putBuf(bodyBuf)
	if _, err := bodyBuf.ReadFrom(http.MaxBytesReader(w, r.Body, 16<<20)); err != nil {
		writeErr(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	body := bodyBuf.Bytes()
	var sreq SynthesizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sreq); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	req, err := resolve(&sreq)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.flt.Err(fault.ServerHandlerError); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.flt.Sleep(r.Context(), fault.ServerResponseSlow)
	s.countWorkload(r, 1)

	// Trace capture starts once the request parses. The recorder sits
	// entirely at the serving layer — sealing it never touches the
	// pipeline — and its trace ID is echoed so the client can fetch the
	// merged timeline from /v1/jobs/{id}/trace later.
	rec := s.requestRecorder(r)
	w.Header().Set(cluster.HeaderTraceID, rec.TraceID())

	probeStart := time.Now()
	data, hit := s.cache.Get(req.key)
	if hit {
		rec.Add("cache.probe", "", probeStart, time.Since(probeStart), "hit")
		res, err := resultFromCache(req.key, data)
		if err != nil {
			// A corrupt cache entry is a server bug; fail loudly.
			writeErr(w, http.StatusInternalServerError, "cached solution invalid: %v", err)
			return
		}
		s.seal(rec, res, routeCacheHit)
		id, err := s.q.Complete(RequestID(r.Context()), res, "served from cache")
		if err != nil {
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, submitResponse{
			JobID: id, Status: string(jobq.Done), Cached: true, Job: "/v1/jobs/" + id,
		})
		s.recordServed(RequestID(r.Context()), rec, routeCacheHit, start)
		return
	}
	rec.Add("cache.probe", "", probeStart, time.Since(probeStart), "miss")

	// Cluster read-through: before synthesizing, ask the key's owner (and
	// its ring successors) whether any peer already holds the solution. A
	// peered document is the same canonical bytes a local synthesis would
	// produce, so it is cached and served exactly like a local hit.
	hops := 0
	if s.cl != nil {
		hops = cluster.Hops(r.Header)
		pctx := obs.WithSpans(r.Context(), rec) // peer probes record peer.fetch spans
		if doc, peer, ok := s.cl.FetchSolution(pctx, req.key, RequestID(r.Context())); ok {
			res, err := resultFromCache(req.key, doc)
			if err != nil {
				// A peer vouched for bytes that don't decode: don't cache
				// them, just synthesize as if the peering missed.
				s.log.Warn("peer solution invalid, synthesizing locally",
					"peer", peer, "key", req.key, "err", err)
			} else {
				res.peer = peer
				s.cache.Put(req.key, res.solution)
				s.seal(rec, res, routePeerHit)
				id, err := s.q.Complete(RequestID(r.Context()), res, "served from peer "+peer)
				if err != nil {
					writeErr(w, http.StatusServiceUnavailable, "%v", err)
					return
				}
				writeJSON(w, http.StatusOK, submitResponse{
					JobID: id, Status: string(jobq.Done), Cached: true, Peer: peer, Job: "/v1/jobs/" + id,
				})
				s.recordServed(RequestID(r.Context()), rec, routePeerHit, start)
				return
			}
		}
	}

	// Load shedding: while the breaker is open, don't even knock on the
	// queue — answer immediately so the workers drain in peace.
	if !s.brk.Allow() {
		s.metrics.jobsShed.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.cfg.BreakerCooldown.Seconds())+1))
		writeErr(w, http.StatusServiceUnavailable, "shedding load: queue has been full for %d consecutive submissions", s.cfg.BreakerThreshold)
		s.recordDropped(RequestID(r.Context()), rec, "shed", start)
		return
	}

	// Journal the acceptance before the submit: a crash anywhere after
	// this line replays the request. The inverse order could lose a job
	// the client was told was accepted.
	label := RequestID(r.Context())
	var entry string
	if s.jnl != nil {
		entry, err = s.jnl.Accepted(label, body)
		if err != nil {
			s.brk.Success() // release a possible half-open probe slot
			writeErr(w, http.StatusInternalServerError, "journal: %v", err)
			return
		}
	}

	// Ownership routing: a request whose key belongs to another healthy
	// node is forwarded there instead of synthesized here, so every key
	// has one home cache. Forward jobs are detached from the worker pool
	// (they spend their life blocked on the network; parking a worker on
	// one invites cross-node pool deadlock). A request that already used
	// its hop budget, or whose owner is down or breaker-open, degrades to
	// local synthesis — the cluster never turns a computable request into
	// an error.
	var id string
	submitAt := time.Now()
	if owner, isSelf := s.owner(req.key); !isSelf && hops < s.cl.MaxHops() && s.cl.Healthy(owner) {
		id, err = s.q.SubmitDetached(label, s.forwardJob(req, owner, label, hops, append([]byte(nil), body...), rec, submitAt))
	} else {
		id, err = s.submitWithRetry(r.Context(), label, s.synthesisJob(req, label, rec, submitAt))
	}
	switch {
	case errors.Is(err, jobq.ErrQueueFull):
		if s.brk.Overflow() {
			s.log.Warn("circuit breaker opened",
				"threshold", s.cfg.BreakerThreshold, "cooldown", s.cfg.BreakerCooldown)
		}
		s.metrics.jobsRejected.Add(1)
		if s.jnl != nil {
			s.journalTerminal(entry, "rejected")
		}
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "queue full (%d waiting): retry later", s.cfg.QueueCap)
		s.recordDropped(label, rec, "rejected", start)
		return
	case errors.Is(err, jobq.ErrShutdown):
		s.brk.Success()
		if s.jnl != nil {
			s.journalTerminal(entry, "rejected")
		}
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	case err != nil:
		s.brk.Success()
		if s.jnl != nil {
			s.journalTerminal(entry, "rejected")
		}
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.brk.Success()
	s.registerJournal(id, entry)
	s.metrics.jobsAccepted.Add(1)
	writeJSON(w, http.StatusAccepted, submitResponse{
		JobID: id, Status: string(jobq.Queued), Job: "/v1/jobs/" + id,
	})
}

// synthesisJob wraps a resolved request into the queue's work unit:
// record the queue wait, run the synthesis under a request_id profiler
// label, seal the trace. submitAt is when the handler pushed the job, so
// the queue.wait span covers exactly the time spent behind other work.
func (s *Server) synthesisJob(req *request, label string, rec *obs.SpanRecorder, submitAt time.Time) jobq.Fn {
	return func(ctx context.Context, progress func(string)) (any, error) {
		if wait := time.Since(submitAt); wait > 0 {
			rec.Add("queue.wait", "", submitAt, wait, "")
		}
		var res *jobResult
		var err error
		pprof.Do(ctx, pprof.Labels("request_id", label), func(ctx context.Context) {
			res, err = s.synthesizeLocal(ctx, req, progress, rec)
		})
		if err != nil {
			return nil, err
		}
		s.seal(rec, res, routeLocal)
		return res, nil
	}
}

// synthesizeLocal runs one synthesis on this node: the body of every
// pool-worker job, and the degraded path of a forward job whose owner
// turned out unreachable. It applies the job timeout itself so both
// callers get the same deadline semantics.
func (s *Server) synthesizeLocal(ctx context.Context, req *request, progress func(string), rec *obs.SpanRecorder) (*jobResult, error) {
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	// Fold this job's algorithm telemetry into the service-wide
	// aggregate served at /metrics. The tracer hooks are outside the
	// pipeline's RNG and floating-point paths, so the traced synthesis
	// is byte-identical to an untraced one (the cache depends on it).
	ctx = obs.Into(ctx, obs.New(s.agg))
	// Thread the process-wide fault plan into the pipeline. With no
	// plan (the default) this is a no-op and the synthesis is
	// byte-identical to a fault-free build.
	ctx = fault.Into(ctx, s.flt)
	algo := "dcsa"
	synth := core.SynthesizeContext
	if req.baseline {
		algo = "baseline"
		synth = core.SynthesizeBaselineContext
	}
	opts := req.opts
	opts.Degrade = s.cfg.Degrade
	progress(fmt.Sprintf("synthesizing %q (%s)", req.graph.Name(), algo))
	synthStart := time.Now()
	sol, err := synth(ctx, req.graph, req.alloc, opts)
	if err != nil {
		return nil, err
	}
	met := sol.Metrics()
	stages := sol.Stages
	// Per-stage spans, reconstructed sequentially from the pipeline's own
	// StageTimes — the recorder never reaches inside the pipeline, so the
	// synthesis stays byte-identical to an unrecorded one.
	sid := rec.Add("synthesize", "", synthStart, time.Since(synthStart), algo)
	if sid != "" {
		at := synthStart
		rec.Add("stage.schedule", sid, at, stages.Schedule, "")
		at = at.Add(stages.Schedule)
		rec.Add("stage.place", sid, at, stages.Place, "")
		at = at.Add(stages.Place)
		rec.Add("stage.route", sid, at, stages.Route, "")
		for _, dg := range sol.Degradations {
			rec.Add("degrade."+dg.Stage, sid, synthStart, 0, dg.Event)
		}
	}
	s.metrics.histSchedule.observe(stages.Schedule)
	s.metrics.histPlace.observe(stages.Place)
	s.metrics.histRoute.observe(stages.Route)
	s.metrics.histTotal.observe(met.CPU)

	// Canonicalize: CPU time is measurement, not solution content.
	// Zeroing it makes the document a pure function of the request, so
	// cache-served and freshly synthesized responses are byte-identical.
	sol.CPU = 0
	// Encode into a pooled buffer, then copy out an exact-size document:
	// the cache and the job record retain the copy, never pool memory.
	buf := getBuf()
	if err := solio.Encode(buf, sol); err != nil {
		putBuf(buf)
		return nil, err
	}
	doc := append([]byte(nil), buf.Bytes()...)
	putBuf(buf)
	s.cache.Put(req.key, doc)
	progress("done")
	return &jobResult{key: req.key, solution: doc, metrics: met,
		stages: stages, degradations: sol.Degradations}, nil
}

// owner resolves the ring owner of key; a non-clustered server owns
// everything.
func (s *Server) owner(key string) (string, bool) {
	if s.cl == nil {
		return "", true
	}
	return s.cl.Owner(key)
}

// forwardJob builds the work unit for a request owned by another node:
// forward it there and return the owner's solution. Any forward failure
// degrades to local synthesis — and once the local result exists, it is
// opportunistically written back to the owner (if reachable again) so
// the ring heals instead of drifting. body is the client's request
// verbatim (an unpooled copy), re-sent so the owner derives the same
// cache key from the same bytes.
func (s *Server) forwardJob(req *request, owner, requestID string, hops int, body []byte, rec *obs.SpanRecorder, submitAt time.Time) jobq.Fn {
	return func(ctx context.Context, progress func(string)) (any, error) {
		fctx := ctx
		if s.cfg.JobTimeout > 0 {
			var cancel context.CancelFunc
			fctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
			defer cancel()
		}
		if wait := time.Since(submitAt); wait > 0 {
			rec.Add("queue.wait", "", submitAt, wait, "")
		}
		progress("forwarding to owner " + owner)
		// The forward span's ID is reserved up front and sent as the
		// remote parent, so the owner's whole timeline nests under it.
		fid := rec.NewID()
		fstart := time.Now()
		doc, spans, err := s.cl.SynthesizeRemote(fctx, owner, req.key, requestID,
			obs.TraceContext{TraceID: rec.TraceID(), Parent: fid}, hops, body)
		if err == nil {
			res, derr := resultFromCache(req.key, doc)
			if derr == nil {
				rec.AddID(fid, "forward", "", fstart, time.Since(fstart), owner)
				rec.Import(spans)
				res.cached = false
				res.peer = owner
				s.cache.Put(req.key, res.solution)
				progress("done (synthesized by " + owner + ")")
				s.seal(rec, res, routeForwarded)
				return res, nil
			}
			err = fmt.Errorf("owner returned invalid solution: %w", derr)
		}
		rec.AddID(fid, "forward", "", fstart, time.Since(fstart), owner+" failed")
		// Degrade: the owner is unreachable or misbehaving, so this node
		// does the work itself rather than failing the accepted job.
		s.log.Warn("forward failed, synthesizing locally",
			"request_id", requestID, "owner", owner, "key", req.key, "err", err)
		progress("owner unreachable, synthesizing locally")
		res, lerr := s.synthesizeLocal(ctx, req, progress, rec)
		if lerr != nil {
			return nil, lerr
		}
		// Write-back rides its own short deadline, detached from the job's
		// context: the job is already done, this is cluster hygiene.
		if s.cl.Healthy(owner) {
			wbStart := time.Now()
			wctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 3*time.Second)
			if werr := s.cl.WriteBack(wctx, owner, req.key, requestID, res.solution); werr != nil {
				s.log.Info("write-back to owner failed", "owner", owner, "key", req.key, "err", werr)
			}
			cancel()
			rec.Add("writeback", "", wbStart, time.Since(wbStart), owner)
		}
		s.seal(rec, res, routeFallback)
		return res, nil
	}
}

// resultFromCache rebuilds a jobResult from a cached document, decoding
// it to recover the solution metrics (and, as a side effect, re-running
// every validator on the cached bytes).
func resultFromCache(key string, data []byte) (*jobResult, error) {
	sol, err := solio.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return &jobResult{key: key, cached: true, solution: data,
		metrics: sol.Metrics(), degradations: sol.Degradations}, nil
}

// metricsJSON mirrors core.Metrics with explicit units.
type metricsJSON struct {
	ExecutionTimeMs int64   `json:"execution_time_ms"`
	Utilization     float64 `json:"utilization"`
	ChannelLengthUm int64   `json:"channel_length_um"`
	CacheTimeMs     int64   `json:"cache_time_ms"`
	ChannelWashMs   int64   `json:"channel_wash_ms"`
	ComponentWashMs int64   `json:"component_wash_ms"`
	Transports      int     `json:"transports"`
	CPUMs           float64 `json:"cpu_ms"`
}

func toMetricsJSON(m core.Metrics) *metricsJSON {
	return &metricsJSON{
		ExecutionTimeMs: int64(m.ExecutionTime),
		Utilization:     m.Utilization,
		ChannelLengthUm: int64(m.ChannelLength),
		CacheTimeMs:     int64(m.CacheTime),
		ChannelWashMs:   int64(m.ChannelWashTime),
		ComponentWashMs: int64(m.ComponentWashTime),
		Transports:      m.Transports,
		CPUMs:           float64(m.CPU.Microseconds()) / 1000,
	}
}

// stagesJSON is the per-stage latency breakdown of one job.
type stagesJSON struct {
	ScheduleMs float64 `json:"schedule_ms"`
	PlaceMs    float64 `json:"place_ms"`
	RouteMs    float64 `json:"route_ms"`
}

// jobResponse is the body of GET /v1/jobs/{id}.
type jobResponse struct {
	ID       string       `json:"id"`
	Status   string       `json:"status"`
	Progress string       `json:"progress,omitempty"`
	Cached   bool         `json:"cached,omitempty"`
	Peer     string       `json:"peer,omitempty"`
	Error    string       `json:"error,omitempty"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
	Key      string       `json:"cache_key,omitempty"`
	Metrics  *metricsJSON `json:"metrics,omitempty"`
	Stages   *stagesJSON  `json:"stages_ms,omitempty"`
	Solution string       `json:"solution,omitempty"`
	// Degradations lists the degradation-ladder rungs the synthesis took
	// (empty for a clean run; see core.Degradation).
	Degradations []core.Degradation `json:"degradations,omitempty"`
	// Trace identity and spans. Spans carries the job's node-attributed
	// timeline; a forwarding node polls it back over this same endpoint
	// (cluster.jobReply) to merge into the client-facing trace. Trace is
	// the merged-timeline URL.
	TraceID string     `json:"trace_id,omitempty"`
	Spans   []obs.Span `json:"trace_spans,omitempty"`
	Trace   string     `json:"trace,omitempty"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.q.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	resp := jobResponse{
		ID: j.ID, Status: string(j.Status), Progress: j.Progress,
		Error: j.Err, Created: j.Created,
	}
	if !j.Started.IsZero() {
		resp.Started = &j.Started
	}
	if !j.Finished.IsZero() {
		resp.Finished = &j.Finished
	}
	if res, ok := j.Result.(*jobResult); ok {
		resp.Cached = res.cached
		resp.Peer = res.peer
		resp.Key = res.key
		resp.Metrics = toMetricsJSON(res.metrics)
		resp.Solution = "/v1/jobs/" + j.ID + "/solution"
		resp.Degradations = res.degradations
		if len(res.spans) > 0 {
			resp.TraceID = res.trace
			resp.Spans = res.spans
			resp.Trace = "/v1/jobs/" + j.ID + "/trace"
		}
		if !res.cached {
			resp.Stages = &stagesJSON{
				ScheduleMs: float64(res.stages.Schedule.Microseconds()) / 1000,
				PlaceMs:    float64(res.stages.Place.Microseconds()) / 1000,
				RouteMs:    float64(res.stages.Route.Microseconds()) / 1000,
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSolution(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.q.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	res, ok := j.Result.(*jobResult)
	if !ok {
		writeErr(w, http.StatusConflict, "job %q is %s: no solution available", id, j.Status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache-Key", res.key)
	_, _ = w.Write(res.solution)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.q.Get(id); !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	ok := s.q.Cancel(id)
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "canceled": ok})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, s.metrics.vars.String())
}
