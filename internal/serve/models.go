package serve

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"temporaldoc/internal/registry"
)

// SingleModelName and SingleModelVersion are the names a Config.ModelPath
// server serves its snapshot under: it is a one-entry registry (a
// registry.OpenFile source), so /v1/models renders the same shape in
// both configurations and a classify request may name its model either
// way.
const (
	SingleModelName    = registry.FileModel
	SingleModelVersion = registry.FileVersion
)

// resolveSnapshot pins the model snapshot a request is served by —
// exactly once per request. The registry resolves the names (and may
// cold-load, under single-flight, bounded by ctx). The int is the HTTP
// status to answer with when err is non-nil.
func (s *Server) resolveSnapshot(ctx context.Context, model, version string) (*registry.Snapshot, int, error) {
	snap, err := s.registry.Acquire(ctx, model, version)
	switch {
	case err == nil:
		return snap, 0, nil
	case errors.Is(err, registry.ErrUnknownModel), errors.Is(err, registry.ErrUnknownVersion):
		return nil, http.StatusNotFound, err
	case errors.Is(err, registry.ErrModelRequired):
		return nil, http.StatusBadRequest, err
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request deadline expired while waiting on a cold load.
		return nil, http.StatusGatewayTimeout, err
	}
	return nil, http.StatusInternalServerError, err
}

// ModelsResponse is the GET /v1/models reply: the registry catalog with
// resident/cold status per version. A Config.ModelPath server lists its
// one entry, default/current.
type ModelsResponse struct {
	// Mode is "single" (Config.ModelPath) or "registry"
	// (Config.ModelsDir).
	Mode string `json:"mode"`
	// DefaultModel is the model an unnamed classify request resolves to;
	// omitted when several models are published and none is configured
	// as the default.
	DefaultModel string                 `json:"default_model,omitempty"`
	Models       []registry.ModelStatus `json:"models"`
}

// handleModels is GET /v1/models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.modelsResponse())
}

func (s *Server) modelsResponse() ModelsResponse {
	resp := ModelsResponse{Mode: s.mode, Models: s.registry.Models()}
	if def, ok := s.registry.Default(); ok {
		resp.DefaultModel = def
	}
	return resp
}

// ModelStatz is one model's request accounting in /v1/statz.
type ModelStatz struct {
	Requests int64 `json:"requests"`
	Docs     int64 `json:"docs"`
}

// modelStats tracks per-model request/document counts. The telemetry
// registry deliberately stays out of this: metric names there must be
// compile-time constants (telemetrysafe), and per-tenant names are
// exactly the dynamic-cardinality case that rule exists for. A small
// atomic map scoped to the server keeps the counts and /v1/statz
// renders them.
type modelStats struct {
	mu sync.Mutex
	m  map[string]*modelCounters
}

type modelCounters struct {
	requests atomic.Int64
	docs     atomic.Int64
}

func newModelStats() *modelStats { return &modelStats{m: map[string]*modelCounters{}} }

// add records one classified job. The mutex only guards the map shape;
// counts are atomics so concurrent workers of the same model never
// serialise on it after first touch.
func (s *modelStats) add(model string, docs int) {
	s.mu.Lock()
	c := s.m[model]
	if c == nil {
		c = &modelCounters{}
		s.m[model] = c
	}
	s.mu.Unlock()
	c.requests.Add(1)
	c.docs.Add(int64(docs))
}

// snapshot renders the counts, sorted iteration left to the consumer
// (JSON maps render sorted by encoding/json anyway).
func (s *modelStats) snapshot() map[string]ModelStatz {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.m) == 0 {
		return nil
	}
	out := make(map[string]ModelStatz, len(s.m))
	names := make([]string, 0, len(s.m))
	for name := range s.m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := s.m[name]
		out[name] = ModelStatz{Requests: c.requests.Load(), Docs: c.docs.Load()}
	}
	return out
}
