// Package serve is the long-lived serving layer of the temporal
// document classifier: a dependency-free net/http JSON API over one or
// many trained, persisted core.Models.
//
// Three design rules shape it:
//
//   - One pinned snapshot per request. Every request resolves its model
//     snapshot exactly once — the atomically swappable handle in
//     single-model mode, the registry's resident cache in registry mode
//     — and scores its whole batch with it, so hot-reloads and cache
//     evictions can land at any moment without a response ever mixing
//     two models. Responses embed the snapshot's SHA-256 to make that
//     provable end to end.
//   - Bounded concurrency with load shedding. Scoring runs on a fixed
//     worker pool behind a bounded queue; when the queue is full the
//     server answers 503 with Retry-After instead of stacking
//     goroutines, and per-request deadlines turn stuck work into 504s.
//   - The scoring hot path allocates nothing per document beyond the
//     response itself: machines come from the model's pool, encodings
//     from its cache, predictions land in one per-job buffer.
//
// Two serving modes share the API. Config.ModelPath serves one model
// (hot-reloadable via SIGHUP or POST /v1/reload, exactly as before);
// Config.ModelsDir serves a model registry — classify requests may name
// a "model" (and "version"), cold models load lazily under single-flight
// into an LRU of resident models, and reloads become registry rescans.
// A single-model server presents itself as a one-entry registry on
// GET /v1/models, so clients never need two shapes.
//
// Endpoints:
//
//	POST /v1/classify  single {"text": ...} or batch {"documents": [...]},
//	                   optional "model" and "version" tenant selection
//	GET  /v1/healthz   liveness plus the default model hash
//	GET  /v1/models    registry catalog with resident/cold status
//	GET  /v1/modelz    model identity and a telemetry snapshot
//	GET  /v1/statz     per-stage latency percentiles, throughput, error
//	                   rates, per-model request counts
//	POST /v1/reload    re-read the snapshot file / rescan the registry
//
// Every request carries an id (client-supplied X-Request-ID or
// generated), echoed on the response; a stage recorder splits each
// classify request into decode → queue-wait → classify → write and can
// sample requests into a JSONL trace (Config.Trace). /v1/statz turns
// the stage histograms into interpolated p50/p90/p95/p99 — the
// server-side half of the `tdc loadgen` benchmark harness.
package serve

import (
	"net/http"
	"time"

	"temporaldoc/internal/registry"
	"temporaldoc/internal/telemetry"
	"temporaldoc/internal/textproc"
)

// Server is one classification service instance. Create with New,
// mount via Handler, stop with Close.
type Server struct {
	cfg Config
	// Exactly one of handle (single-model mode) and registry (registry
	// mode) is non-nil; resolveSnapshot dispatches on it.
	handle   *Handle
	registry *registry.Registry
	pool     *pool
	pre      *textproc.Preprocessor
	mux      *http.ServeMux
	handler  http.Handler
	stages   *telemetry.StageRecorder
	stats    *modelStats
	met      serverMetrics
	// started anchors /v1/statz uptime and throughput; reporting only.
	started time.Time
}

// serverMetrics holds the pre-resolved handles of the request path.
type serverMetrics struct {
	timeouts *telemetry.Counter
	panics   *telemetry.Counter
}

// New loads the model snapshot (or opens the model registry) and
// assembles a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		pre:    textproc.NewPreprocessor(textproc.Options{}),
		stages: telemetry.NewStageRecorder(cfg.Metrics, "serve.stage", cfg.Trace, cfg.TraceSampleEvery),
		stats:  newModelStats(),
		met: serverMetrics{
			timeouts: cfg.Metrics.Counter("serve.timeouts"),
			panics:   cfg.Metrics.Counter("serve.panics"),
		},
	}
	if cfg.ModelsDir != "" {
		reg, err := registry.Open(registry.Config{
			Root:             cfg.ModelsDir,
			Default:          cfg.DefaultModel,
			MaxResident:      cfg.Resident,
			MaxResidentBytes: cfg.ResidentBytes,
			Method:           cfg.Method,
			Metrics:          cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		s.registry = reg
	} else {
		handle, err := OpenHandle(cfg.ModelPath, cfg.Method, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		s.handle = handle
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, cfg.Metrics, s.stages, s.stats)
	//lint:ignore determinism serving metadata: the start stamp only feeds /v1/statz uptime, never model state
	s.started = time.Now()
	s.mux = http.NewServeMux()
	// recoverPanics sits inside InstrumentHandler so a recovered 500
	// still lands in the per-route status counters and latency histogram.
	mount := func(route string, h http.HandlerFunc) http.Handler {
		return cfg.Metrics.InstrumentHandler(route, s.recoverPanics(h))
	}
	s.mux.Handle("/v1/classify", mount("classify", s.handleClassify))
	s.mux.Handle("/v1/healthz", mount("healthz", s.handleHealthz))
	s.mux.Handle("/v1/models", mount("models", s.handleModels))
	s.mux.Handle("/v1/modelz", mount("modelz", s.handleModelz))
	s.mux.Handle("/v1/statz", mount("statz", s.handleStatz))
	s.mux.Handle("/v1/reload", mount("reload", s.handleReload))
	s.handler = withRequestID(s.mux)
	if s.registry != nil {
		models := s.registry.Models()
		versions := 0
		for _, m := range models {
			versions += len(m.Versions)
		}
		cfg.Log.Info("registry opened", "dir", cfg.ModelsDir, "models", len(models), "versions", versions,
			"resident_limit", cfg.Resident, "workers", cfg.Workers, "queue", cfg.QueueDepth)
	} else {
		snap := s.handle.Current()
		table := snap.Model.EncodeTable()
		cfg.Log.Info("model loaded", "path", snap.Info.Path, "sha256", snap.Info.SHA256, "bytes", snap.Info.Bytes,
			"encode_table_entries", table.Entries, "encode_table_build_ms", table.BuildMS,
			"workers", cfg.Workers, "queue", cfg.QueueDepth)
	}
	return s, nil
}

// Handler returns the server's HTTP handler (all /v1/ endpoints,
// wrapped in the request-id middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// MultiTenant reports whether the server runs in registry mode.
func (s *Server) MultiTenant() bool { return s.registry != nil }

// Current returns the model snapshot serving right now in single-model
// mode, nil in registry mode (where "current" is per-tenant — see
// /v1/models).
func (s *Server) Current() *ModelSnapshot {
	if s.handle == nil {
		return nil
	}
	return s.handle.Current()
}

// Reload refreshes the serving state: in single-model mode it re-reads
// the snapshot file and swaps it in (previous model keeps serving on
// error); in registry mode it rescans the registry and returns a nil
// snapshot. Wired to SIGHUP and POST /v1/reload.
func (s *Server) Reload() (*ModelSnapshot, error) {
	if s.registry != nil {
		_, err := s.registry.Scan()
		return nil, err
	}
	return s.handle.Reload()
}

// Rescan re-reads the registry directory (registry mode's reload) and
// reports what the scan accepted and skipped.
func (s *Server) Rescan() (registry.ScanStats, error) {
	if s.registry == nil {
		return registry.ScanStats{}, errSingleModeRescan
	}
	return s.registry.Scan()
}

// Close drains the worker pool. Call after the HTTP listener has shut
// down; queued jobs finish, new submissions panic — the HTTP layer
// must already be stopped.
func (s *Server) Close() { s.pool.close() }
