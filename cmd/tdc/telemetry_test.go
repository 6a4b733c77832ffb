package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"temporaldoc/internal/telemetry"
)

func TestTelemetryFlagsRejectBadLogFormat(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tf := registerTelemetryFlags(fs)
	if err := fs.Parse([]string{"-log-format", "yaml"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tf.start(); err == nil {
		t.Error("bad -log-format accepted")
	}
}

func TestTelemetrySessionDisabledByDefault(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tf := registerTelemetryFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	ts, err := tf.start()
	if err != nil {
		t.Fatal(err)
	}
	defer ts.close()
	if ts.reg != nil {
		t.Error("registry allocated without telemetry flags")
	}
	if ts.observer != nil {
		t.Error("observer installed without telemetry flags")
	}
	if ts.trainProgress() == nil {
		t.Error("plain session lost the milestone Progress shim")
	}
}

// TestCmdTrainMetricsSnapshot is the ISSUE's CLI acceptance check:
// `tdc train -metrics <file> -trace-events <file> -log-format json`
// must produce a valid JSON snapshot whose metrics cover SOM epochs, GP
// tournaments and the encode-cache / machine-pool hit rates, plus a
// JSONL event trace.
func TestCmdTrainMetricsSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI training skipped in -short")
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	metricsOut := filepath.Join(dir, "metrics.json")
	eventsOut := filepath.Join(dir, "events.jsonl")
	err := cmdTrain([]string{"-profile", "smoke", "-scale", "0.006", "-out", model,
		"-metrics", metricsOut, "-trace-events", eventsOut,
		"-log-format", "json", "-quiet"})
	if err != nil {
		t.Fatalf("train: %v", err)
	}

	data, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not a valid snapshot: %v", err)
	}
	for _, name := range []string{"hsom.char.epochs", "hsom.word.epochs", "lgp.tournaments", "core.categories.trained"} {
		if snap.Counters[name] == 0 {
			t.Errorf("snapshot counter %q missing or zero", name)
		}
	}
	// The machine-pool pair must be present (pool counters register
	// eagerly; training scores its outputs on a pooled machine, so
	// misses are guaranteed).
	if snap.Counters["core.machine.pool.misses"] == 0 {
		t.Errorf("machine-pool misses missing from snapshot: %v", snap.Counters)
	}
	for _, name := range []string{"core.machine.pool.hits", "core.machine.pool.misses"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("snapshot missing counter %q", name)
		}
	}
	if snap.Histograms["core.category.train.seconds"].Count == 0 {
		t.Error("category training spans missing from snapshot")
	}

	// The events file must be one JSON object per line, covering SOM
	// epochs, tournaments and both milestones.
	ef, err := os.Open(eventsOut)
	if err != nil {
		t.Fatalf("events file: %v", err)
	}
	defer ef.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(ef)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		kinds[e.Kind]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"som_epoch", "encoder_ready", "generation", "category_trained"} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in trace (saw %v)", k, kinds)
		}
	}
}

// TestCmdClassifyWithMetrics covers the Load + AttachTelemetry path.
func TestCmdClassifyWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI training skipped in -short")
	}
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	if err := cmdTrain([]string{"-profile", "smoke", "-scale", "0.006", "-out", model, "-quiet"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	metricsOut := filepath.Join(dir, "classify-metrics.json")
	if _, err := captureStdout(t, func() error {
		return cmdClassify([]string{"-model", model, "-profile", "smoke",
			"-scale", "0.006", "-limit", "3", "-metrics", metricsOut, "-quiet"})
	}); err != nil {
		t.Fatalf("classify: %v", err)
	}
	data, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("invalid snapshot: %v", err)
	}
	if snap.Histograms["core.classify.seconds"].Count == 0 {
		t.Error("classification latency missing from snapshot")
	}
	if snap.Histograms["core.score.seconds"].Count == 0 {
		t.Errorf("per-category score latency missing: %v", snap.Histograms)
	}
}
