package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/telemetry"
)

// ModelSnapshot pairs a loaded model with the identity of the snapshot
// file it came from. A request pins exactly one ModelSnapshot for its
// whole lifetime, so every document of a batch is scored by the same
// model and the response can prove which one via Info.SHA256.
type ModelSnapshot struct {
	Model *core.Model
	Info  core.SnapshotInfo
	// Name and Version identify the snapshot in the registry's
	// namespace; the single-model path serves SingleModelName /
	// SingleModelVersion so every response names its tenant either way.
	Name    string
	Version string
	// LoadedAt is when this snapshot became current (wall clock,
	// reporting only).
	LoadedAt time.Time
}

// Handle is an atomically swappable reference to the current model.
// Readers (request workers) pay one atomic pointer load; writers
// (reloads) fully construct the new model before publishing it, so a
// failed reload leaves the previous model serving and an in-flight
// request never observes a half-loaded or mixed model.
type Handle struct {
	path   string
	method featsel.Method
	reg    *telemetry.Registry

	// mu serialises reloads; it is never taken on the request path.
	mu  sync.Mutex
	cur atomic.Pointer[ModelSnapshot]

	reloads      *telemetry.Counter
	reloadErrors *telemetry.Counter
}

// OpenHandle loads the snapshot at path and returns a live handle.
// When method is non-empty the snapshot header must record exactly that
// feature-selection method.
func OpenHandle(path string, method featsel.Method, reg *telemetry.Registry) (*Handle, error) {
	h := &Handle{
		path:         path,
		method:       method,
		reg:          reg,
		reloads:      reg.Counter("serve.reloads"),
		reloadErrors: reg.Counter("serve.reload.errors"),
	}
	if _, err := h.Reload(); err != nil {
		return nil, err
	}
	return h, nil
}

// Current returns the model snapshot serving right now. Callers must
// keep using the returned pointer — not call Current again — for the
// rest of a request, so concurrent reloads cannot mix models within
// one response.
func (h *Handle) Current() *ModelSnapshot { return h.cur.Load() }

// Reload re-reads the snapshot file and atomically swaps it in. On any
// error the previous model keeps serving untouched. Safe to call
// concurrently with itself and with Current.
func (h *Handle) Reload() (*ModelSnapshot, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, info, err := core.LoadFile(h.path)
	if err != nil {
		h.reloadErrors.Inc()
		return nil, err
	}
	if h.method != "" && m.FeatureMethod() != h.method {
		h.reloadErrors.Inc()
		return nil, fmt.Errorf("serve: snapshot %s was trained with feature method %q, not the required %q",
			h.path, m.FeatureMethod(), h.method)
	}
	m.AttachTelemetry(h.reg, nil)
	//lint:ignore determinism serving metadata: the load timestamp is reported on /v1/modelz, never reaches model state
	now := time.Now()
	snap := &ModelSnapshot{Model: m, Info: info, Name: SingleModelName, Version: SingleModelVersion, LoadedAt: now}
	h.cur.Store(snap)
	h.reloads.Inc()
	return snap, nil
}
