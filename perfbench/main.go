// Command perfbench is the repository's benchmark: one program that
// trains and serves the temporal document classifier under three
// workloads and prints every end-to-end metric by name and unit.
//
// perfbench/run.sh builds tdc and this program from the checkout and
// runs them; from the repository root:
//
//	bash perfbench/run.sh --workload serve-distinct --seed 3 --seconds 15 --trace 0
//
// Workloads:
//
//	train-quick     in-process corpus generation, core.Train, Model.Save
//	serve-distinct  `tdc serve -model`, closed loop, every document new
//	serve-tenants   `tdc serve -models-dir`, open loop over four tenants
//
// BENCHMARK.json gates train-quick and serve-distinct. serve-tenants is
// run by hand: its open-loop tail follows the host's speed too closely
// to hold a bound (see README.md).
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics of a traced pass with --trace 1. The lines
// above it are the human-readable report. A failed output check makes
// correct false and the exit status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// e2eNames are the end-to-end metrics every workload prints with
// --trace 0; they match the end_to_end list of BENCHMARK.json.
var e2eNames = []string{"setup_s", "p50_ms", "p99_ms", "docs_per_s", "rss_mb", "macro_f1", "micro_f1"}

// layerNames are the per-layer metrics printed with --trace 1; they
// match the per_layer list of BENCHMARK.json. A layer a workload does
// not exercise reads 0.
var layerNames = []string{
	"reuters.generate_s",
	"textproc.process_us",
	"featsel.select_s",
	"hsom.char_train_s", "hsom.word_train_s", "hsom.encoder_train_s", "hsom.encoder_cpu_util",
	"lgp.evolve_s", "lgp.evolve_cpu_util", "lgp.tournaments", "lgp.tournament_ms", "lgp.run_sequence_us",
	"hsom.encode_us", "hsom.wordvec_hit_ratio", "hsom.wordvec_attempts",
	"core.classify_cold_us", "core.classify_warm_us", "core.encode_cache_hit_ratio", "core.encode_cache_attempts",
	"core.load_ms", "core.save_ms",
	"serve.decode_p50_us", "serve.queue_p50_us", "serve.queue_p99_us", "serve.classify_p50_us",
	"serve.classify_p99_us", "serve.write_p50_us", "serve.server_p50_us", "serve.outside_p50_us",
	"serve.shed", "serve.timeouts",
	"registry.cold_load_ms", "registry.loads", "registry.evictions", "registry.hit_ratio",
	"registry.attempts", "registry.rescan_ms", "registry.publish_ms",
	"gen.late_p99_ms", "gen.sent", "gen.failed",
	"trace.overhead_pct",
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tdc      string
	work     string
}

func (o options) window() time.Duration { return time.Duration(o.seconds) * time.Second }

// outcome is what one pass of a workload measured and checked.
type outcome struct {
	e2e    *metricSet // end-to-end metrics
	extra  *metricSet // workload-specific end-to-end figures, report only
	layers *metricSet // per-layer metrics (traced passes)

	attempted, failed int64
	failures          []string
	nFailures         int
}

func newOutcome() *outcome {
	return &outcome{e2e: newMetricSet(), extra: newMetricSet(), layers: newMetricSet()}
}

// fail records a failed output check; the first few are kept verbatim.
func (o *outcome) fail(format string, args ...any) {
	o.nFailures++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one named benchmark workload. prepare builds fixtures
// (untimed, once per invocation); run measures one pass, traced when tr
// is non-nil.
type workload interface {
	prepare(ctx context.Context) error
	run(ctx context.Context, tr *tracer) (*outcome, error)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "train-quick, serve-distinct or serve-tenants")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: drives corpora, document pools, request mix and arrivals")
	flag.IntVar(&o.seconds, "seconds", 15, "measurement window of one pass, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds a traced pass and prints per-layer metrics")
	flag.StringVar(&o.tdc, "tdc", "", "tdc binary built from the commit under test (serve workloads)")
	flag.StringVar(&o.work, "work", ".bench_build/work", "directory for fixtures, logs and trace files")
	flag.Parse()
	o.trace = traceFlag == 1
	correct, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run runs one workload, prints the report and the result line, and
// reports whether every output check passed.
func run(o options) (bool, error) {
	if o.seconds < 1 {
		return false, fmt.Errorf("--seconds must be at least 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := filepath.Join(o.work, fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	var w workload
	switch o.workload {
	case "train-quick":
		w = &trainQuick{o: o, dir: dir}
	case "serve-distinct":
		w = &serveDistinct{o: o, dir: dir}
	case "serve-tenants":
		w = &serveTenants{o: o, dir: dir}
	default:
		return false, fmt.Errorf("unknown --workload %q (train-quick, serve-distinct, serve-tenants)", o.workload)
	}
	if o.workload != "train-quick" {
		if _, err := os.Stat(o.tdc); err != nil {
			return false, fmt.Errorf("--tdc: %w", err)
		}
	}
	fmt.Printf("perfbench %s seed %d, %ds window, %d CPUs\n", o.workload, o.seed, o.seconds, runtime.NumCPU())
	if err := w.prepare(ctx); err != nil {
		return false, err
	}

	out, err := w.run(ctx, nil)
	if err != nil {
		return false, err
	}
	printPass("end-to-end (untraced pass)", out)
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: out.e2e.only(e2eNames).values}
	failures := out.nFailures
	if o.trace {
		tr := newTracer()
		traced, err := w.run(ctx, tr)
		if err != nil {
			return false, err
		}
		printPass("end-to-end (traced pass)", traced)
		// Tracing overhead: how much the traced pass moved the headline
		// latency against the untraced pass of the same invocation.
		base := out.e2e.get("p50_ms")
		overhead := 0.0
		if base > 0 {
			overhead = 100 * (traced.e2e.get("p50_ms") - base) / base
		}
		traced.layers.add("trace.overhead_pct", overhead,
			fmt.Sprintf("traced p50 %.4g ms vs untraced %.4g ms", traced.e2e.get("p50_ms"), base))
		layers := traced.layers.only(layerNames)
		fmt.Println("per-layer (traced pass):")
		layers.write(os.Stdout, "  ")
		printSelfTimes(tr)
		spans := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.writeFile(spans); err != nil {
			return false, err
		}
		fmt.Printf("spans written to %s\n", spans)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Metrics = layers.values
		failures += traced.nFailures
	}
	res.Correct = failures == 0 && res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return res.Correct, nil
}

func printPass(title string, out *outcome) {
	fmt.Println(title + ":")
	out.e2e.only(e2eNames).write(os.Stdout, "  ")
	out.extra.write(os.Stdout, "  ")
	fmt.Printf("  attempted %d, failed %d\n", out.attempted, out.failed)
	for _, f := range out.failures {
		fmt.Println("  CHECK FAILED:", f)
	}
	if extra := out.nFailures - len(out.failures); extra > 0 {
		fmt.Printf("  ... and %d more failed checks\n", extra)
	}
}

// printSelfTimes lists the traced span names by summed self time.
func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sortByDuration(names, self)
	fmt.Println("span self time (summed over the traced pass):")
	for _, n := range names {
		fmt.Printf("  %-32s %10.3f s  (n=%d)\n", n, self[n].Seconds(), len(tr.durations(n)))
	}
}
