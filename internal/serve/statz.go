package serve

import (
	"net/http"
	"time"

	"temporaldoc/internal/telemetry"
)

// StageStatz is one latency distribution rendered for /v1/statz:
// interpolated percentiles (telemetry.HistogramSnapshot.Quantile) in
// microseconds, plus count and mean. Percentiles are estimates within
// the histogram's bucket resolution (exponential 1µs..8.6s bounds,
// doubling), good to a factor of 2 worst-case and far better in
// practice — and identical math on both sides of the loadgen
// cross-check.
type StageStatz struct {
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

// stageStatzFrom renders a seconds histogram as microsecond statz.
func stageStatzFrom(h telemetry.HistogramSnapshot) StageStatz {
	const usPerSec = 1e6
	qs := h.Quantiles(0.50, 0.90, 0.95, 0.99)
	return StageStatz{
		Count:  h.Count,
		MeanUS: h.Mean() * usPerSec,
		P50US:  qs[0] * usPerSec,
		P90US:  qs[1] * usPerSec,
		P95US:  qs[2] * usPerSec,
		P99US:  qs[3] * usPerSec,
	}
}

// StatzRequests is the request-accounting block of /v1/statz. Total and
// the status classes count classify requests only (the other routes are
// not load-bearing). Shed (queue-full 503) and Timeout (deadline 504)
// are also inside ServerError's 5xx total; they get their own counters
// and rates because they are the two backpressure signals a load test
// steers by.
type StatzRequests struct {
	Total       int64 `json:"total"`
	OK          int64 `json:"ok"`
	ClientError int64 `json:"client_error"`
	ServerError int64 `json:"server_error"`
	Shed        int64 `json:"shed"`
	Timeout     int64 `json:"timeout"`
	Panics      int64 `json:"panics"`
	// ShedRate and TimeoutRate are fractions of Total (0 when Total is).
	ShedRate    float64 `json:"shed_rate"`
	TimeoutRate float64 `json:"timeout_rate"`
}

// StatzResponse is the GET /v1/statz reply: the serving performance
// story in one document — per-stage latency percentiles, end-to-end
// latency, throughput since start, live queue/inflight state and error
// rates. `tdc loadgen` reads it before and after a run and cross-checks
// its client-side measurements against the deltas.
type StatzResponse struct {
	ModelHash     string  `json:"model_hash"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests StatzRequests `json:"requests"`
	// DocsClassified counts documents (a batch of 64 is one request but
	// 64 docs); DocThroughput is docs per second of uptime.
	DocsClassified    int64   `json:"docs_classified"`
	RequestThroughput float64 `json:"request_throughput_rps"`
	DocThroughput     float64 `json:"doc_throughput_dps"`

	Inflight   float64 `json:"inflight"`
	QueueDepth float64 `json:"queue_depth"`

	// Latency is end-to-end handler time (http.classify.seconds);
	// Stages breaks it into decode / queue / classify / write from the
	// stage recorder's histograms.
	Latency StageStatz            `json:"latency"`
	Stages  map[string]StageStatz `json:"stages"`

	// Models counts classified requests/documents per served model name
	// (a Config.ModelPath server counts under SingleModelName). Omitted until
	// the first classified job.
	Models map[string]ModelStatz `json:"models,omitempty"`
}

// handleStatz is GET /v1/statz.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.statz())
}

// statz assembles the response from one registry snapshot, so every
// number in it is from (almost) the same instant. With a nil registry
// everything but identity and uptime stays zero.
func (s *Server) statz() StatzResponse {
	snap := s.cfg.Metrics.Snapshot()
	uptime := time.Since(s.started).Seconds()
	// The identity hash is the default model's latest version (empty
	// when no default resolves); per-model traffic is in Models.
	_, _, modelHash, _ := s.registry.DefaultVersionInfo()
	resp := StatzResponse{
		ModelHash:     modelHash,
		UptimeSeconds: uptime,
		Requests: StatzRequests{
			Total:       snap.Counters["http.classify.requests"],
			OK:          snap.Counters["http.classify.status.2xx"],
			ClientError: snap.Counters["http.classify.status.4xx"],
			ServerError: snap.Counters["http.classify.status.5xx"],
			Shed:        snap.Counters["serve.queue.rejected"],
			Timeout:     snap.Counters["serve.timeouts"],
			Panics:      snap.Counters["serve.panics"],
		},
		DocsClassified: snap.Counters["serve.docs"],
		Inflight:       snap.Gauges["http.classify.inflight"],
		QueueDepth:     snap.Gauges["serve.queue.depth"],
		Latency:        stageStatzFrom(snap.Histograms["http.classify.seconds"]),
		Stages:         make(map[string]StageStatz, telemetry.NumStages),
	}
	if resp.Requests.Total > 0 {
		resp.Requests.ShedRate = float64(resp.Requests.Shed) / float64(resp.Requests.Total)
		resp.Requests.TimeoutRate = float64(resp.Requests.Timeout) / float64(resp.Requests.Total)
	}
	if uptime > 0 {
		resp.RequestThroughput = float64(resp.Requests.Total) / uptime
		resp.DocThroughput = float64(resp.DocsClassified) / uptime
	}
	for st := telemetry.Stage(0); st < telemetry.NumStages; st++ {
		resp.Stages[st.String()] = stageStatzFrom(snap.Histograms["serve.stage."+st.String()+".seconds"])
	}
	resp.Models = s.stats.snapshot()
	return resp
}
