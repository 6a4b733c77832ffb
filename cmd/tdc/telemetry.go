package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"

	"temporaldoc/internal/core"
	"temporaldoc/internal/experiments"
	"temporaldoc/internal/telemetry"
)

// telemetryFlags bundles the observability flags shared by the train,
// evaluate and classify subcommands:
//
//	-metrics <file>       write the final telemetry snapshot as JSON
//	-trace <file>         write training events as JSON lines
//	-telemetry-addr addr  serve expvar + pprof over HTTP while running
//	-log-format text|json stderr log encoding
//	-v                    verbose logging (per-epoch / per-tournament)
//	-quiet                errors only
type telemetryFlags struct {
	metricsOut *string
	traceOut   *string
	addr       *string
	logFormat  *string
	verbose    *bool
	quiet      *bool
}

func registerTelemetryFlags(fs *flag.FlagSet) *telemetryFlags {
	return &telemetryFlags{
		metricsOut: fs.String("metrics", "", "write the final telemetry snapshot (JSON) to this file"),
		traceOut:   fs.String("trace-events", "", "write training events (JSONL) to this file"),
		addr:       fs.String("telemetry-addr", "", "serve expvar and pprof over HTTP on this address (e.g. localhost:6060)"),
		logFormat:  fs.String("log-format", "text", "stderr log encoding: text or json"),
		verbose:    fs.Bool("v", false, "verbose logging: per-epoch and per-tournament events"),
		quiet:      fs.Bool("quiet", false, "log errors only"),
	}
}

// telemetrySession is the live observability state of one subcommand
// run: the registry the pipeline records into, the structured logger
// replacing ad-hoc stderr prints, the event sinks and the optional
// debug HTTP server. The zero-cost contract holds end to end: when no
// telemetry flag is set, reg stays nil and the whole pipeline runs on
// the no-op path.
type telemetrySession struct {
	reg      *telemetry.Registry
	log      *slog.Logger
	observer core.Observer

	metricsPath string
	events      *telemetry.EventWriter
	eventsFile  *os.File
	listener    net.Listener
}

// expvarOnce guards expvar.Publish, which panics on duplicate names
// (tests open several sessions in one process).
var (
	expvarOnce sync.Once
	expvarReg  *telemetry.Registry
	expvarMu   sync.Mutex
)

// start validates the flags and opens every requested sink.
func (tf *telemetryFlags) start() (*telemetrySession, error) {
	level := slog.LevelInfo
	if *tf.verbose {
		level = slog.LevelDebug
	}
	if *tf.quiet {
		level = slog.LevelError
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *tf.logFormat {
	case "", "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text, json)", *tf.logFormat)
	}
	ts := &telemetrySession{
		log:         slog.New(handler),
		metricsPath: *tf.metricsOut,
	}

	if *tf.metricsOut != "" || *tf.addr != "" {
		ts.reg = telemetry.NewRegistry()
	}
	if *tf.traceOut != "" {
		f, err := os.Create(*tf.traceOut)
		if err != nil {
			return nil, fmt.Errorf("trace events: %w", err)
		}
		ts.eventsFile = f
		ts.events = telemetry.NewEventWriter(f)
	}
	// The observer feeds both the JSONL event sink and the logger.
	// High-volume kinds (epochs, tournaments) log at Debug so they only
	// reach stderr under -v; milestones log at Info. It is installed
	// only when something consumes the extra events — an attached
	// observer makes the SOM compute per-epoch quantisation error, which
	// plain runs should not pay for.
	if ts.events != nil || ts.reg != nil || *tf.verbose {
		ts.observer = core.ObserverFunc(ts.onEvent)
	}

	if *tf.addr != "" {
		expvarMu.Lock()
		expvarReg = ts.reg
		expvarMu.Unlock()
		expvarOnce.Do(func() {
			expvar.Publish("telemetry", expvar.Func(func() any {
				expvarMu.Lock()
				r := expvarReg
				expvarMu.Unlock()
				return r.Snapshot()
			}))
		})
		ln, err := net.Listen("tcp", *tf.addr)
		if err != nil {
			return nil, fmt.Errorf("telemetry-addr: %w", err)
		}
		ts.listener = ln
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				ts.log.Error("telemetry server", "err", err)
			}
		}()
		ts.log.Info("telemetry server listening", "addr", ln.Addr().String())
	}
	return ts, nil
}

// onEvent routes one TrainEvent to the logger and the JSONL sink.
func (ts *telemetrySession) onEvent(e core.TrainEvent) {
	if err := ts.events.Emit(e); err != nil {
		ts.log.Error("trace event write failed", "err", err)
	}
	switch e.Kind {
	case core.EventSOMEpoch:
		// The attribute is "map" rather than "level": slog's JSON handler
		// already emits a top-level "level" key for the log severity.
		ts.log.Debug("som epoch",
			"map", e.Level, "category", e.Category, "epoch", e.Epoch,
			"awc", e.AWC, "quant_error", e.QuantError, "radius", e.Radius,
			"dur", e.Duration)
	case core.EventEncoderReady:
		ts.log.Info("encoder trained", "dur", e.Duration)
	case core.EventGeneration:
		ts.log.Debug("gp tournament",
			"category", e.Category, "restart", e.Restart,
			"tournament", e.Tournament, "best", e.BestFitness,
			"mean", e.MeanFitness, "mean_len", e.MeanLen,
			"page_size", e.PageSize, "dur", e.Duration)
	case core.EventCategoryTrained:
		ts.log.Info("classifier ready",
			"category", e.Category, "fitness", e.Fitness,
			"threshold", e.Threshold, "restart", e.Restart, "dur", e.Duration)
	}
}

// apply threads the session's sinks into an experiment profile.
func (ts *telemetrySession) apply(p *experiments.Profile) {
	p.Metrics = ts.reg
	p.Observer = ts.observer
}

// trainProgress returns the milestone observer used when no richer
// observer is active, so a plain `tdc train` logs its encoder and
// classifier milestones through slog (-quiet and -log-format apply).
// Nil when the session observer already logs them.
func (ts *telemetrySession) trainProgress() core.Observer {
	if ts.observer != nil {
		return nil
	}
	return core.Milestones(func(e core.TrainEvent) {
		if e.Kind == core.EventEncoderReady {
			ts.log.Info("encoder trained")
			return
		}
		ts.log.Info("classifier ready", "category", e.Category)
	})
}

// close flushes the snapshot file and tears the sinks down; call via
// defer. Snapshot/teardown errors are reported, not fatal — the
// subcommand's own work already succeeded.
func (ts *telemetrySession) close() {
	if ts.listener != nil {
		_ = ts.listener.Close()
	}
	if ts.metricsPath != "" {
		if err := ts.writeSnapshot(); err != nil {
			ts.log.Error("metrics snapshot failed", "path", ts.metricsPath, "err", err)
		} else {
			ts.log.Info("metrics snapshot written", "path", ts.metricsPath)
		}
	}
	if ts.eventsFile != nil {
		if err := ts.eventsFile.Close(); err != nil {
			ts.log.Error("trace events close failed", "err", err)
		}
	}
}

func (ts *telemetrySession) writeSnapshot() error {
	f, err := os.Create(ts.metricsPath)
	if err != nil {
		return err
	}
	if err := ts.reg.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
