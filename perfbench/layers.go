package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/registry"
	"temporaldoc/internal/telemetry"
)

// serveLayers derives the server-side layer metrics from two reads of
// the server's own observers around the timed window. Server histograms
// cover every classify request of the window, singles and batches.
func serveLayers(l *metricSet, before, after serverStats, client timing) {
	stage := func(name, hist string, q float64) {
		v, n := histUS(before, after, hist, q)
		l.add(name, v, fmt.Sprintf("window delta of %s, n=%d", hist, n))
	}
	stage("serve.decode_p50_us", "serve.stage.decode.seconds", 0.5)
	stage("serve.queue_p50_us", "serve.stage.queue.seconds", 0.5)
	stage("serve.queue_p99_us", "serve.stage.queue.seconds", 0.99)
	stage("serve.classify_p50_us", "serve.stage.classify.seconds", 0.5)
	stage("serve.classify_p99_us", "serve.stage.classify.seconds", 0.99)
	stage("serve.write_p50_us", "serve.stage.write.seconds", 0.5)
	stage("serve.server_p50_us", "http.classify.seconds", 0.5)
	server, _ := histUS(before, after, "http.classify.seconds", 0.5)
	l.add("serve.outside_p50_us", 1000*client.P50-server,
		fmt.Sprintf("client p50 %.4g us − server p50 %.4g us", 1000*client.P50, server))
	l.add("serve.shed", float64(after.statz.Requests.Shed-before.statz.Requests.Shed), "queue-full 503s")
	l.add("serve.timeouts", float64(after.statz.Requests.Timeout-before.statz.Requests.Timeout), "deadline 504s")

	addCounterRatio(l, before, after, "core.encode_cache", "core.encode.cache.hits", "core.encode.cache.misses")
	addCounterRatio(l, before, after, "hsom.wordvec", "hsom.wordvec.cache.hits", "hsom.wordvec.cache.misses")
}

// addCounterRatio records <prefix>_hit_ratio and <prefix>_attempts from
// a pair of server hit/miss counters.
func addCounterRatio(l *metricSet, before, after serverStats, prefix, hits, misses string) {
	h, m := counter(before, after, hits), counter(before, after, misses)
	r := ratio{Hits: h, Attempts: h + m}
	l.addRatio(prefix+"_hit_ratio", r)
	l.add(prefix+"_attempts", float64(r.Attempts), "")
}

// probeDoc is one served document replayed in-process.
type probeDoc struct{ id, text string }

// probeServing times the serving layers in-process, one public call per
// span, on the workload's own snapshot and documents: core.LoadFile,
// textproc, core.ClassifyDoc on a fresh and on a repeated document, and
// per category hsom's Encoder.Encode and lgp's Machine.RunSequence. The
// per-category replay must reproduce ClassifyDoc's scores to the bit.
func probeServing(tr *tracer, l *metricSet, out *outcome, path string, docs []probeDoc) error {
	var m *core.Model
	for i := 0; i < 3; i++ {
		_, end := tr.begin("core.LoadFile", 0, "")
		loaded, _, err := core.LoadFile(path)
		end()
		if err != nil {
			return err
		}
		m = loaded
	}
	gp := quickProfile(fixtureSeed).GP
	machine := lgp.NewMachine(gp.NumRegisters)
	cats := m.Categories()
	keeps := make([]map[string]bool, len(cats))
	for k, cat := range cats {
		keeps[k] = m.Keep(cat)
	}
	for i, d := range docs {
		root, endDoc := tr.begin("probe.document", 0, d.id)
		_, end := tr.begin("textproc.Process", root, d.id)
		words := pre.Process(d.text)
		end()
		doc := corpus.Document{ID: fmt.Sprintf("probe-%d", i), Words: words}
		_, end = tr.begin("core.ClassifyDoc.cold", root, d.id)
		preds, err := m.ClassifyDoc(&doc, nil)
		end()
		if err != nil {
			return err
		}
		_, end = tr.begin("core.ClassifyDoc.warm", root, d.id)
		_, err = m.ClassifyDoc(&doc, nil)
		end()
		if err != nil {
			return err
		}
		for k, cat := range cats {
			var filtered []string
			for _, w := range words {
				if keeps[k][w] {
					filtered = append(filtered, w)
				}
			}
			_, end = tr.begin("hsom.Encoder.Encode", root, d.id)
			codes, err := m.Encoder().Encode(cat, filtered)
			end()
			if err != nil {
				return err
			}
			var inputs [][]float64
			for _, c := range codes {
				if c.Member {
					inputs = append(inputs, []float64{c.NormIndex, c.Membership})
				}
			}
			prog := m.CategoryModelFor(cat).Program
			_, end = tr.begin("lgp.Machine.RunSequence", root, d.id)
			var score float64
			if gp.Recurrent {
				score = machine.RunSequence(prog, inputs)
			} else {
				score = machine.RunSequenceNonRecurrent(prog, inputs)
			}
			end()
			if math.Float64bits(score) != math.Float64bits(preds[k].Score) {
				out.fail("probe %s/%s: replayed score %v, ClassifyDoc %v", d.id, cat, score, preds[k].Score)
			}
		}
		endDoc()
	}
	l.addTiming("core.load_ms", summarize(msSamples(tr.durations("core.LoadFile"))))
	l.addTiming("textproc.process_us", summarize(usSamples(tr.durations("textproc.Process"))))
	l.addTiming("core.classify_cold_us", summarize(usSamples(tr.durations("core.ClassifyDoc.cold"))))
	l.addTiming("core.classify_warm_us", summarize(usSamples(tr.durations("core.ClassifyDoc.warm"))))
	l.addTiming("hsom.encode_us", summarize(usSamples(tr.durations("hsom.Encoder.Encode"))))
	l.addTiming("lgp.run_sequence_us", summarize(usSamples(tr.durations("lgp.Machine.RunSequence"))))
	return nil
}

// registryProbeRounds is how many times probeRegistryLayer cycles
// through its two models.
const registryProbeRounds = 3

// probeRegistryLayer times the registry in-process on a snapshot, one
// public call per span. It publishes the snapshot as two models, opens
// a registry with one resident slot and acquires the models in pairs,
// alternating: the first acquire of a pair is a cold load that evicts
// the other model, the second a hit. Then it publishes further versions
// and rescans after each. Loads, evictions and hits come from the
// registry's own counters.
func probeRegistryLayer(ctx context.Context, tr *tracer, l *metricSet, dir, snapshot string) error {
	root := filepath.Join(dir, "registry-probe")
	models := []string{"probe-a", "probe-b"}
	stamp := publishEpoch
	publish := func(model, version string) error {
		stamp = stamp.Add(time.Second)
		_, end := tr.begin("registry.Publish", 0, model+"/"+version)
		_, err := registry.Publish(root, model, version, snapshot, registry.PublishOptions{CreatedAt: stamp})
		end()
		return err
	}
	for _, m := range models {
		if err := publish(m, "v1"); err != nil {
			return err
		}
	}
	met := telemetry.NewRegistry()
	reg, err := registry.Open(registry.Config{Root: root, MaxResident: 1, Metrics: met})
	if err != nil {
		return err
	}
	for round := 0; round < registryProbeRounds; round++ {
		for _, m := range models {
			for _, span := range []string{"registry.Acquire.cold", "registry.Acquire.warm"} {
				_, end := tr.begin(span, 0, m)
				_, err := reg.Acquire(ctx, m, "")
				end()
				if err != nil {
					return err
				}
			}
		}
	}
	for v := 2; v <= 1+registryProbeRounds; v++ {
		if err := publish(models[0], fmt.Sprintf("v%d", v)); err != nil {
			return err
		}
		_, end := tr.begin("registry.Scan", 0, models[0])
		_, err := reg.Scan()
		end()
		if err != nil {
			return err
		}
	}
	value := func(name string) int64 { return met.Counter(name).Value() }
	hits := value("registry.hits")
	r := ratio{Hits: hits, Attempts: hits + value("registry.misses") + value("registry.singleflight.coalesced")}
	l.addTiming("registry.cold_load_ms", summarize(msSamples(tr.durations("registry.Acquire.cold"))))
	l.add("registry.loads", float64(value("registry.loads")), "in-process probe, one resident slot")
	l.add("registry.evictions", float64(value("registry.evictions")), "in-process probe, one resident slot")
	l.addRatio("registry.hit_ratio", r)
	l.add("registry.attempts", float64(r.Attempts), "in-process probe: acquires in pairs, the second a hit")
	l.addTiming("registry.rescan_ms", summarize(msSamples(tr.durations("registry.Scan"))))
	l.addTiming("registry.publish_ms", summarize(msSamples(tr.durations("registry.Publish"))))
	return nil
}
