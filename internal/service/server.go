package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
	"virtualsync/internal/sim"
)

// Config sizes the optimization server.
type Config struct {
	// Workers is the optimization worker pool size (default: GOMAXPROCS).
	Workers int
	// QueueCap bounds the pending-job queue; submissions beyond it get
	// 503 (default 64).
	QueueCap int
	// CacheEntries is the LRU result-cache capacity (default 256).
	CacheEntries int
	// SessionEntries bounds the live optimization sessions kept for
	// incremental (ECO) re-optimization (default 32). Sessions hold the
	// extracted region and last plan, so they are much heavier than
	// cached results.
	SessionEntries int
	// JobTimeout is the default per-job deadline, overridable per job by
	// Params.TimeoutMS (default 5m).
	JobTimeout time.Duration
	// MaxBody caps request bodies in bytes (default 32 MiB).
	MaxBody int64
	// Lib is the default cell library for requests that do not carry
	// their own (default: the built-in 45nm-style library).
	Lib *celllib.Library
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.SessionEntries <= 0 {
		c.SessionEntries = 32
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 32 << 20
	}
	if c.Lib == nil {
		c.Lib = celllib.Default()
	}
	return c
}

// job is one tracked submission.
type job struct {
	id  string
	key string

	circuit *netlist.Circuit
	lib     *celllib.Library
	params  Params
	edits   []netlist.Edit
	baseJob string

	mu       sync.Mutex
	state    string
	stage    string
	cacheHit bool
	deduped  bool
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	result   *JobResult
	events   []Event
	changed  chan struct{} // closed and replaced on every update
	cancel   context.CancelFunc

	// waiters are identical submissions attached to this in-flight
	// primary; guarded by Server.mu, not job.mu.
	waiters []*job
}

func isTerminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateTimeout, StateCanceled:
		return true
	}
	return false
}

// emitLocked appends an event and wakes streamers. Callers hold j.mu.
func (j *job) emitLocked(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *job) setStage(stage string) {
	j.mu.Lock()
	j.stage = stage
	j.emitLocked(Event{State: j.state, Stage: stage})
	j.mu.Unlock()
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		CacheHit: j.cacheHit,
		Deduped:  j.deduped,
		Created:  j.created,
		Error:    j.errMsg,
	}
	if j.state == StateRunning {
		st.Stage = j.stage
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if isTerminal(j.state) {
		st.Result = j.result
	}
	return st
}

// Server is the optimization-as-a-service HTTP server: it parses and
// canonicalizes submissions, deduplicates them against the result cache
// and in-flight identical jobs, schedules the extract→LP→legalize→
// discretize pipeline on a bounded worker pool, and streams progress.
type Server struct {
	cfg      Config
	sched    *Scheduler
	cache    *Cache
	reg      *Registry
	sessions *sessionStore
	mux      *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job IDs in creation order
	inflight map[string]*job
	nextID   int

	mSubmitted   *Counter
	mCompleted   *CounterVec
	mExecuted    *Counter
	mCacheHits   *Counter
	mCacheMisses *Counter
	mPivots      *Counter
	mCrashPivots *Counter
	mNodes       *Counter
	mWarmStarts  *Counter
	mColdStarts  *Counter
	mRefuted     *Counter
	mNodeCapped  *Counter
	mLatency     *Histogram

	mECOIncremental *Counter
	mECONearMiss    *Counter
	mECOCold        *Counter
	mECOFallback    *Counter

	mVerifiedLanes *Counter

	// preRun, when non-nil, runs at the head of every executed pipeline
	// (test hook for deterministic timeout/cancel/shutdown scenarios).
	preRun func(ctx context.Context, j *job)
}

// New starts an optimization server. The context is the base lifetime
// of the worker pool; Shutdown drains it.
func New(ctx context.Context, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sched:    NewScheduler(ctx, cfg.Workers, cfg.QueueCap),
		cache:    NewCache(cfg.CacheEntries),
		reg:      NewRegistry(),
		sessions: newSessionStore(cfg.SessionEntries),
		jobs:     map[string]*job{},
		inflight: map[string]*job{},
	}
	s.mSubmitted = s.reg.Counter("vsync_jobs_submitted_total", "Jobs accepted over HTTP.")
	s.mCompleted = s.reg.CounterVec("vsync_jobs_completed_total", "Jobs finished, by terminal state.", "state")
	s.mExecuted = s.reg.Counter("vsync_jobs_executed_total", "Optimization pipelines actually run (cache hits and deduplicated submissions excluded).")
	s.mCacheHits = s.reg.Counter("vsync_cache_hits_total", "Submissions served from the content-hash result cache.")
	s.mCacheMisses = s.reg.Counter("vsync_cache_misses_total", "Submissions that had to run the pipeline.")
	s.mPivots = s.reg.Counter("vsync_solver_pivots_total", "Simplex pivots spent by completed jobs.")
	s.mCrashPivots = s.reg.Counter("vsync_solver_crash_pivots_total", "Warm-start basis re-seating pivots spent by completed jobs.")
	s.mNodes = s.reg.Counter("vsync_solver_bnb_nodes_total", "Branch-and-bound nodes solved by completed jobs.")
	s.mWarmStarts = s.reg.Counter("vsync_solver_warm_starts_total", "LP solves seeded from a prior basis.")
	s.mColdStarts = s.reg.Counter("vsync_solver_cold_starts_total", "LP solves from the all-slack basis.")
	s.mRefuted = s.reg.Counter("vsync_solver_refuted_total", "LP solves proven infeasible by bound propagation before the simplex.")
	s.mNodeCapped = s.reg.Counter("vsync_solver_node_capped_total", "Branch-and-bound searches stopped at the node cap.")
	s.mLatency = s.reg.Histogram("vsync_job_duration_seconds", "End-to-end job latency (submission to terminal state).",
		[]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
	s.reg.Gauge("vsync_queue_depth", "Jobs waiting for a worker.", func() float64 { return float64(s.sched.QueueDepth()) })
	s.reg.Gauge("vsync_workers_busy", "Workers currently optimizing.", func() float64 { return float64(s.sched.Busy()) })
	s.reg.Gauge("vsync_workers", "Worker pool size.", func() float64 { return float64(s.sched.Workers()) })
	s.mECOIncremental = s.reg.Counter("vsync_eco_incremental_total", "ECO jobs served from a live session via incremental re-optimization.")
	s.mECONearMiss = s.reg.Counter("vsync_eco_nearmiss_total", "Plain submissions rerouted to the incremental path by structural match.")
	s.mECOCold = s.reg.Counter("vsync_eco_cold_total", "ECO jobs that found no session and ran the cold pipeline.")
	s.mECOFallback = s.reg.Counter("vsync_eco_fallback_total", "Incremental attempts that degraded to the cold period search internally.")
	s.mVerifiedLanes = s.reg.Counter("vsync_verify_lanes_total", "Independent stimulus lanes covered by equivalence verification.")
	s.reg.Gauge("vsync_cache_entries", "Results held in the LRU cache.", func() float64 { return float64(s.cache.Len()) })
	s.reg.Gauge("vsync_sessions", "Live optimization sessions held for ECO re-use.", func() float64 { return float64(s.sessions.Len()) })
	s.reg.Gauge("vsync_jobs_inflight", "Tracked jobs not yet in a terminal state.", s.inflightCount)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry (for embedding extra metrics).
func (s *Server) Registry() *Registry { return s.reg }

// Shutdown stops accepting work and drains: every accepted job still
// runs to a terminal state. If ctx ends first, in-flight pipelines are
// cancelled (they finish as canceled) and Shutdown returns ctx.Err()
// after the workers come home.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.sched.Drain(ctx)
}

func (s *Server) inflightCount() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if !isTerminal(j.state) {
			n++
		}
		j.mu.Unlock()
	}
	return float64(n)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// newJobLocked creates and tracks a job. Callers hold s.mu.
func (s *Server) newJobLocked(key string, c *netlist.Circuit, lib *celllib.Library, p Params) *job {
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("j%06d", s.nextID),
		key:     key,
		circuit: c,
		lib:     lib,
		params:  p,
		state:   StateQueued,
		created: time.Now(),
		changed: make(chan struct{}),
	}
	j.events = []Event{{Seq: 0, State: StateQueued}}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	edits, err := netlist.ParseEdits(req.Edits)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid edits: %v", err)
		return
	}
	if req.BaseJob != "" && len(edits) == 0 {
		httpError(w, http.StatusBadRequest, "base_job requires a non-empty edit list")
		return
	}
	// A netlist is mandatory except for ECO jobs addressed by base_job,
	// which edit a session the server already holds.
	var c *netlist.Circuit
	if strings.TrimSpace(req.Netlist) == "" {
		if req.BaseJob == "" {
			httpError(w, http.StatusBadRequest, "empty netlist")
			return
		}
	} else {
		name := req.Name
		if name == "" {
			name = "job"
		}
		c, err = netlist.Parse(strings.NewReader(req.Netlist), name)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid netlist: %v", err)
			return
		}
	}
	lib := s.cfg.Lib
	if req.Library != "" {
		lib, err = celllib.ParseLibraryString(req.Library)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid library: %v", err)
			return
		}
	}
	if err := req.Params.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid params: %v", err)
		return
	}
	params := req.Params.Normalize()
	var key string
	if c != nil {
		key, err = CacheKey(c, lib, params)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	if len(edits) > 0 {
		// The edit list (and base reference) shapes the result, so it is
		// part of the identity the cache and dedup operate on.
		key = ecoKey(key, req.BaseJob, edits)
	}
	s.mSubmitted.Inc()

	s.mu.Lock()
	if res, ok := s.cache.Get(key); ok {
		// Served entirely from the content-hash cache: the job is born
		// terminal and no pipeline runs.
		j := s.newJobLocked(key, c, lib, params)
		j.mu.Lock()
		j.state = StateDone
		j.cacheHit = true
		now := time.Now()
		j.started, j.finished = now, now
		j.result = res
		j.emitLocked(Event{State: StateDone, Message: "served from result cache"})
		j.mu.Unlock()
		s.mu.Unlock()
		s.mCacheHits.Inc()
		s.mCompleted.With(StateDone).Inc()
		s.mLatency.Observe(0)
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	if primary, ok := s.inflight[key]; ok {
		// Identical submission already queued or running: attach to it so
		// the pipeline runs exactly once for the whole group.
		j := s.newJobLocked(key, c, lib, params)
		j.mu.Lock()
		j.deduped = true
		j.emitLocked(Event{State: StateQueued, Message: "deduplicated against job " + primary.id})
		j.mu.Unlock()
		primary.waiters = append(primary.waiters, j)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	j := s.newJobLocked(key, c, lib, params)
	j.edits = edits
	j.baseJob = req.BaseJob
	s.inflight[key] = j
	s.mu.Unlock()
	s.mCacheMisses.Inc()

	if !s.sched.TrySubmit(func(ctx context.Context) { s.runJob(ctx, j) }) {
		s.finishJob(j, StateQueued, StateFailed, nil, "job queue full", false)
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "job queue full (capacity %d)", s.cfg.QueueCap)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		st.Result = nil // keep the listing light
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	// Queued jobs are cancelled in place (the worker later skips them);
	// running jobs get their pipeline context cancelled and finish as
	// canceled through the normal completion path.
	if !s.finishJob(j, StateQueued, StateCanceled, nil, "canceled before start", false) {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idx := 0
	for {
		j.mu.Lock()
		pending := append([]Event(nil), j.events[idx:]...)
		idx = len(j.events)
		terminal := isTerminal(j.state)
		changed := j.changed
		j.mu.Unlock()
		for _, ev := range pending {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if fl != nil && len(pending) > 0 {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteTo(w)
}

// finishJob moves j (and, for a primary, every attached waiter) to a
// terminal state exactly once and records completion metrics. onlyFrom,
// when non-empty, makes the transition conditional on the current state
// (used to cancel still-queued jobs without racing their worker). It
// reports whether j transitioned.
func (s *Server) finishJob(j *job, onlyFrom, state string, res *JobResult, errMsg string, executed bool) bool {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	waiters := j.waiters
	j.waiters = nil
	s.mu.Unlock()

	ok := s.completeOne(j, onlyFrom, state, res, errMsg)
	if ok && executed && res != nil {
		s.mExecuted.Inc()
		s.mPivots.Add(float64(res.Solver.Pivots))
		s.mCrashPivots.Add(float64(res.Solver.CrashPivots))
		s.mNodes.Add(float64(res.Solver.BnBNodes))
		s.mWarmStarts.Add(float64(res.Solver.WarmStarts))
		s.mColdStarts.Add(float64(res.Solver.ColdStarts))
		s.mRefuted.Add(float64(res.Solver.Refuted))
		s.mNodeCapped.Add(float64(res.Solver.NodeCapped))
	}
	for _, w := range waiters {
		s.completeOne(w, "", state, res, errMsg)
	}
	return ok
}

func (s *Server) completeOne(j *job, onlyFrom, state string, res *JobResult, errMsg string) bool {
	j.mu.Lock()
	if isTerminal(j.state) || (onlyFrom != "" && j.state != onlyFrom) {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.stage = ""
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	latency := j.finished.Sub(j.created)
	j.emitLocked(Event{State: state, Message: errMsg})
	j.mu.Unlock()
	s.mCompleted.With(state).Inc()
	if state == StateDone {
		s.mLatency.Observe(latency.Seconds())
	}
	return true
}

// runJob executes one scheduled pipeline on a worker.
func (s *Server) runJob(base context.Context, j *job) {
	// Skip jobs cancelled while queued.
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.emitLocked(Event{State: StateRunning})
	timeout := s.cfg.JobTimeout
	if j.params.TimeoutMS > 0 {
		timeout = time.Duration(j.params.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(base, timeout)
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	res, err := s.execute(ctx, j)
	switch {
	case err == nil:
		s.cache.Put(j.key, res)
		s.finishJob(j, "", StateDone, res, "", true)
	case errors.Is(err, context.DeadlineExceeded):
		s.finishJob(j, "", StateTimeout, nil, "job deadline exceeded", false)
	case errors.Is(err, context.Canceled):
		s.finishJob(j, "", StateCanceled, nil, "canceled", false)
	default:
		s.finishJob(j, "", StateFailed, nil, err.Error(), false)
	}
}

// execute runs one job to a result: the cold pipeline for plain
// submissions, the incremental path for jobs carrying an edit list.
func (s *Server) execute(ctx context.Context, j *job) (*JobResult, error) {
	if s.preRun != nil {
		s.preRun(ctx, j)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(j.edits) > 0 {
		return s.executeECO(ctx, j)
	}
	return s.executePlain(ctx, j, j.circuit, nil)
}

// executePlain runs the same pipeline as the one-shot vsync CLI — the
// retiming&sizing baseline (unless skipped), the VirtualSync period
// search, optional equivalence simulation — and serializes the result.
// Each circuit's pipeline is deterministic, so the emitted netlist is
// byte-identical to the CLI's for the same input. The search runs inside
// an optimization session that is kept for later ECO jobs. Plain
// skip-baseline submissions that structurally match a stored session
// are rerouted to the incremental path instead (near miss).
func (s *Server) executePlain(ctx context.Context, j *job, c *netlist.Circuit, eco *ECOInfo) (*JobResult, error) {
	work := c
	if !j.params.SkipBaseline {
		j.setStage(StageBaseline)
		b, err := retime.Baseline(work, j.lib)
		if err != nil {
			return nil, err
		}
		work = b.Circuit
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if eco == nil && j.params.SkipBaseline {
		if out, handled, err := s.tryNearMiss(ctx, j, work); handled {
			return out, err
		}
	}

	j.setStage(StageSolving)
	sess, err := core.NewSession(ctx, work, j.lib, s.coreOptions(j), j.params.StepFrac, func(ev core.ProgressEvent) {
		stage := StageSolving
		if ev.Stage == "replace" {
			stage = StageLegalizing
		}
		feasible := ev.Feasible
		j.mu.Lock()
		j.stage = stage
		j.emitLocked(Event{
			State: StateRunning, Stage: stage, T: ev.T, Feasible: &feasible,
			Pivots: ev.Solver.Pivots(), BnBNodes: ev.Solver.Nodes,
		})
		j.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	out, err := s.buildResult(ctx, j, work, sess.Result, eco)
	if err != nil {
		return nil, err
	}
	// An ECO job's key is the edit-list identity, not a netlist content
	// key; its session is addressable by job ID (and shape) only.
	key := j.key
	if eco != nil {
		key = ""
	}
	s.storeSession(j, key, sess)
	return out, nil
}

// executeECO serves a job carrying an edit list: it resolves the base
// session (by job ID, then by netlist content key), re-optimizes
// incrementally, and degrades to the cold pipeline on the edited
// netlist when no session is live.
func (s *Server) executeECO(ctx context.Context, j *job) (*JobResult, error) {
	var (
		sess *core.Session
		meta sessionMeta
		ok   bool
	)
	if j.baseJob != "" {
		sess, meta, ok = s.sessions.TakeByJob(j.baseJob)
		if !ok {
			return nil, fmt.Errorf("no live optimization session for base job %q", j.baseJob)
		}
	} else {
		baseKey, err := CacheKey(j.circuit, j.lib, j.params)
		if err != nil {
			return nil, err
		}
		sess, meta, ok = s.sessions.TakeByKey(baseKey)
	}
	if !ok {
		// Cold ECO: apply the edits and run the full pipeline; the
		// session built along the way serves future edits incrementally.
		s.mECOCold.Inc()
		work := j.circuit.Clone()
		if _, err := work.ApplyEdits(j.edits); err != nil {
			return nil, err
		}
		return s.executePlain(ctx, j, work, ecoInfo(nil, len(j.edits), false))
	}

	j.setStage(StageSolving)
	res, st, err := sess.Reoptimize(ctx, j.edits)
	if err != nil {
		// The session is unchanged on error; keep it for another try.
		s.sessions.Put(meta, sess)
		return nil, err
	}
	s.mECOIncremental.Inc()
	if st.Fallback {
		s.mECOFallback.Inc()
	}
	out, err := s.buildResult(ctx, j, sess.Circuit, res, ecoInfo(st, len(j.edits), false))
	if err != nil {
		s.sessions.Put(meta, sess)
		return nil, err
	}
	s.storeSession(j, "", sess)
	return out, nil
}

// maxNearMissEdits bounds how far a submission may structurally drift
// from a stored session and still take the incremental path; beyond it
// a cold run is cheaper than dragging a large dirty cone around.
const maxNearMissEdits = 64

// tryNearMiss reroutes a cache-missed plain submission onto a stored
// session that matches its structural shape, serving it as an implicit
// ECO of the diff. handled=false means the cold path should proceed.
func (s *Server) tryNearMiss(ctx context.Context, j *job, work *netlist.Circuit) (out *JobResult, handled bool, err error) {
	shape, err := ShapeKey(work, j.lib, j.params)
	if err != nil {
		return nil, false, nil
	}
	sess, meta, ok := s.sessions.TakeByShape(shape)
	if !ok {
		return nil, false, nil
	}
	edits, ok := netlist.DiffEdits(sess.Circuit, work)
	if !ok || len(edits) > maxNearMissEdits {
		s.sessions.Put(meta, sess)
		return nil, false, nil
	}
	j.setStage(StageSolving)
	res, st, err := sess.Reoptimize(ctx, edits)
	if err != nil {
		s.sessions.Put(meta, sess)
		if ctx.Err() != nil {
			return nil, true, err
		}
		return nil, false, nil // let the cold path have a go
	}
	s.mECONearMiss.Inc()
	s.mECOIncremental.Inc()
	if st.Fallback {
		s.mECOFallback.Inc()
	}
	out, err = s.buildResult(ctx, j, sess.Circuit, res, ecoInfo(st, len(edits), true))
	if err != nil {
		return nil, true, err
	}
	s.storeSession(j, j.key, sess)
	return out, true, nil
}

// ecoInfo describes how an edit-carrying job was served: st is the
// incremental re-optimization's report, or nil when the edits went
// through the cold pipeline.
func ecoInfo(st *core.ECOStats, edits int, nearMiss bool) *ECOInfo {
	if st == nil {
		return &ECOInfo{Edits: edits}
	}
	return &ECOInfo{
		Incremental:   true,
		NearMiss:      nearMiss,
		Edits:         edits,
		Spliced:       st.Spliced,
		ConeNodes:     st.ConeNodes,
		Probes:        st.Probes,
		RecoverySteps: st.RecoverySteps,
		Fallback:      st.Fallback,
	}
}

func (s *Server) coreOptions(j *job) core.Options {
	opts := core.DefaultOptions()
	opts.SelectFrac = j.params.SelectFrac
	opts.UseLatches = *j.params.UseLatches
	opts.BufferReplace = *j.params.BufferReplace
	return opts
}

// storeSession indexes sess under the finished job: by job ID for
// explicit base_job chains, by content key (when given) for
// netlist-addressed ECOs, and by the current circuit's shape for
// near-miss rerouting.
func (s *Server) storeSession(j *job, key string, sess *core.Session) {
	shape, err := ShapeKey(sess.Circuit, j.lib, j.params)
	if err != nil {
		shape = ""
	}
	s.sessions.Put(sessionMeta{JobID: j.id, Key: key, Shape: shape}, sess)
}

// buildResult converts an optimization result into the wire form,
// running the optional equivalence simulation against base (the
// pre-optimization netlist the result was computed from).
func (s *Server) buildResult(ctx context.Context, j *job, base *netlist.Circuit, res *core.Result, eco *ECOInfo) (*JobResult, error) {
	out := &JobResult{
		BaselinePeriod:     res.BaselinePeriod,
		Period:             res.Period,
		PeriodReductionPct: res.PeriodReductionPct(),
		BaselineArea:       res.BaselineArea,
		Area:               res.Area,
		NumFFUnits:         res.NumFFUnits,
		NumLatchUnits:      res.NumLatchUnits,
		NumBuffers:         res.NumBuffers,
		RemovedFFs:         res.RemovedFFs,
		Solver:             solverStatsFrom(res.Solver),
		RuntimeMS:          res.Runtime.Milliseconds(),
		ECO:                eco,
	}
	if j.params.VerifyCycles > 0 {
		j.setStage(StageVerifying)
		if err := s.verifyEquivalence(j, base, res, out); err != nil {
			return nil, fmt.Errorf("equivalence sim: %w", err)
		}
	}
	var buf bytes.Buffer
	if err := netlist.Write(&buf, res.Circuit); err != nil {
		return nil, err
	}
	out.Netlist = buf.String()
	return out, nil
}

// verifyEquivalence fills out's equivalence fields from
// sim.CheckEquivalence over VerifyLanes stimulus lanes (0 or 1: the
// historical single vector on the event oracle).
func (s *Server) verifyEquivalence(j *job, base *netlist.Circuit, res *core.Result, out *JobResult) error {
	const verifySeed = 1
	lanes := max(j.params.VerifyLanes, 1)
	stims := sim.LaneStimulus(base, j.params.VerifyCycles, 0, verifySeed, lanes)
	er, err := sim.CheckEquivalence(base, res.Circuit, j.lib,
		res.BaselinePeriod, res.Period, res.VerifyWarmup(), stims)
	if err != nil {
		return err
	}
	ok := len(er.Mismatches) == 0
	out.EquivOK = &ok
	out.Mismatches = len(er.Mismatches)
	out.VerifiedLanes = er.Lanes
	s.mVerifiedLanes.Add(float64(er.Lanes))
	return nil
}
