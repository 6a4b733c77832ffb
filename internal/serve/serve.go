// Package serve is the long-lived serving layer of the temporal
// document classifier: a dependency-free net/http JSON API over one or
// many trained, persisted core.Models.
//
// Three design rules shape it:
//
//   - One pinned snapshot per request. Every request acquires its model
//     snapshot from the registry exactly once and scores its whole batch
//     with it, so reloads and cache evictions can land at any moment
//     without a response ever mixing two models. Responses embed the
//     snapshot's SHA-256 to make that provable end to end.
//   - Bounded concurrency with load shedding. Scoring runs on a fixed
//     worker pool behind a bounded queue; when the queue is full the
//     server answers 503 with Retry-After instead of stacking
//     goroutines, and per-request deadlines turn stuck work into 504s.
//   - The scoring hot path allocates nothing per document beyond the
//     response itself: machines come from the model's pool, word codes
//     from its precomputed encode table, predictions land in one per-job
//     buffer.
//
// Every server serves a registry.Registry. Config.ModelsDir opens a
// model registry directory: classify requests may name a "model" (and
// "version"), and cold models load lazily under single-flight into an
// LRU of resident models. Config.ModelPath opens a one-entry file
// source — the snapshot served as model "default", version "current" —
// so both configurations share one request path and one response shape
// per endpoint. A reload (SIGHUP or POST /v1/reload) is a registry scan:
// it re-reads the directory, or the file.
//
// Endpoints:
//
//	POST /v1/classify  single {"text": ...} or batch {"documents": [...]},
//	                   optional "model" and "version" tenant selection
//	GET  /v1/healthz   liveness plus the default model hash
//	GET  /v1/models    registry catalog with resident/cold status
//	GET  /v1/modelz    catalog, telemetry snapshot and the resident
//	                   default model's identity
//	GET  /v1/statz     per-stage latency percentiles, throughput, error
//	                   rates, per-model request counts
//	POST /v1/reload    rescan the registry (re-read the -model file)
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
	// mode is "single" (Config.ModelPath) or "registry"
	// (Config.ModelsDir), as reported on /v1/models, /v1/modelz and
	// /v1/reload.
	mode     string
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

// New opens the registry — a one-entry file source for ModelPath, the
// directory for ModelsDir — and assembles a ready-to-serve Server.
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
	rcfg := registry.Config{
		Default:          cfg.DefaultModel,
		MaxResident:      cfg.Resident,
		MaxResidentBytes: cfg.ResidentBytes,
		Method:           cfg.Method,
		Metrics:          cfg.Metrics,
	}
	var err error
	if cfg.ModelPath != "" {
		s.mode = "single"
		s.registry, err = registry.OpenFile(cfg.ModelPath, rcfg)
	} else {
		s.mode = "registry"
		rcfg.Root = cfg.ModelsDir
		s.registry, err = registry.Open(rcfg)
	}
	if err != nil {
		return nil, err
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
	models := s.registry.Models()
	versions := 0
	for _, m := range models {
		versions += len(m.Versions)
	}
	// Exactly one of ModelPath and ModelsDir is set (setDefaults).
	cfg.Log.Info("registry opened", "mode", s.mode, "source", cfg.ModelPath+cfg.ModelsDir, "models", len(models), "versions", versions,
		"resident_limit", cfg.Resident, "workers", cfg.Workers, "queue", cfg.QueueDepth)
	if snap, ok := s.registry.DefaultResident(); ok {
		table := snap.Model.EncodeTable()
		cfg.Log.Info("model loaded", "path", snap.Info.Path, "sha256", snap.Info.SHA256, "bytes", snap.Info.Bytes,
			"encode_table_entries", table.Entries, "encode_table_build_ms", table.BuildMS)
	}
	return s, nil
}

// Handler returns the server's HTTP handler (all /v1/ endpoints,
// wrapped in the request-id middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// Reload rescans the registry — re-reads the -models-dir tree, or the
// -model file — and returns what the scan accepted. On error nothing is
// swapped and the previous catalog and snapshots keep serving. Wired to
// SIGHUP and POST /v1/reload.
func (s *Server) Reload() (registry.ScanStats, error) { return s.registry.Scan() }

// Close drains the worker pool. Call after the HTTP listener has shut
// down; queued jobs finish, new submissions panic — the HTTP layer
// must already be stopped.
func (s *Server) Close() { s.pool.close() }
