package core

import (
	"bytes"
	"sync"
	"testing"

	"temporaldoc/internal/featsel"
	"temporaldoc/internal/telemetry"
)

// TestTelemetryDoesNotPerturbModel is the ISSUE's determinism gate:
// training with the full telemetry stack attached (registry, typed
// observer, legacy Progress shim) must persist byte-identical model
// snapshots to training with telemetry fully disabled.
func TestTelemetryDoesNotPerturbModel(t *testing.T) {
	c := smallCorpus(t)

	plain, err := Train(fastConfig(featsel.DF), c)
	if err != nil {
		t.Fatalf("Train (no telemetry): %v", err)
	}

	cfg := fastConfig(featsel.DF)
	cfg.Metrics = telemetry.NewRegistry()
	var mu sync.Mutex
	var events []TrainEvent
	cfg.Observer = ObserverFunc(func(e TrainEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	var progress int
	cfg.Progress = func(stage, detail string) {
		mu.Lock()
		progress++
		mu.Unlock()
	}
	traced, err := Train(cfg, c)
	if err != nil {
		t.Fatalf("Train (telemetry): %v", err)
	}

	var a, b bytes.Buffer
	if err := plain.Save(&a); err != nil {
		t.Fatalf("Save plain: %v", err)
	}
	if err := traced.Save(&b); err != nil {
		t.Fatalf("Save traced: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("model bytes differ with telemetry attached: %d vs %d bytes", a.Len(), b.Len())
	}

	// The observer must have seen every event kind the pipeline emits.
	kinds := map[EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []EventKind{EventSOMEpoch, EventEncoderReady, EventGeneration, EventCategoryTrained} {
		if kinds[k] == 0 {
			t.Errorf("no %s events observed (saw %v)", k, kinds)
		}
	}
	if kinds[EventEncoderReady] != 1 {
		t.Errorf("EventEncoderReady fired %d times, want 1", kinds[EventEncoderReady])
	}
	if want := len(c.Categories); kinds[EventCategoryTrained] != want {
		t.Errorf("EventCategoryTrained fired %d times, want %d", kinds[EventCategoryTrained], want)
	}
	// The legacy Progress shim keeps its contract alongside the observer:
	// one encoder milestone plus one call per category.
	if want := 1 + len(c.Categories); progress != want {
		t.Errorf("Progress fired %d times, want %d", progress, want)
	}

	// The registry must have covered SOM epochs, GP tournaments and the
	// machine pool (trainCategory scores its training outputs on a
	// pooled machine).
	snap := cfg.Metrics.Snapshot()
	for _, name := range []string{"hsom.char.epochs", "hsom.word.epochs", "lgp.tournaments", "core.categories.trained", "core.machine.pool.misses"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q is zero in snapshot", name)
		}
	}
	if snap.Histograms["core.category.train.seconds"].Count == 0 {
		t.Errorf("core.category.train.seconds recorded no spans")
	}
}

// TestAttachTelemetryAfterLoad covers the Load path: a reconstructed
// model starts silent, and AttachTelemetry retrofits registry handles
// onto both the model and its encoder.
func TestAttachTelemetryAfterLoad(t *testing.T) {
	m, c := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	reg := telemetry.NewRegistry()
	loaded.AttachTelemetry(reg, nil)

	doc := c.Test[0]
	if _, err := loaded.Classify(&doc); err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if _, err := loaded.Classify(&doc); err != nil {
		t.Fatalf("Classify: %v", err)
	}
	snap := reg.Snapshot()
	// Scoring reads the encode table built at Load: the encoder's
	// word-vector cache only moves at build time.
	if n := snap.Counters["hsom.wordvec.cache.hits"] + snap.Counters["hsom.wordvec.cache.misses"]; n != 0 {
		t.Errorf("classification reached the encoder (%d word-vector lookups): %+v", n, snap.Counters)
	}
	if snap.Histograms["core.score.seconds"].Count == 0 {
		t.Errorf("core.score.seconds recorded no spans")
	}
	if snap.Histograms["core.classify.seconds"].Count != 2 {
		t.Errorf("core.classify.seconds count = %d, want 2", snap.Histograms["core.classify.seconds"].Count)
	}
}
