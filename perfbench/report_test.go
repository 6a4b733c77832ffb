package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeReportsHighestTailWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailQ float64
		tail  float64
	}{
		{n: 1000, tailQ: 0.99, tail: 990},
		{n: 10000, tailQ: 0.999, tail: 9990},
		{n: 200, tailQ: 0.95, tail: 190},
		{n: 100, tailQ: 0.9, tail: 90},
		{n: 40, tailQ: 0.75, tail: 30},
		{n: 15, tailQ: 0, tail: 0},
	} {
		got := summarize(seq(tc.n))
		if got.N != tc.n || got.TailQ != tc.tailQ || got.Tail != tc.tail {
			t.Errorf("n=%d: got %+v, want tail %s = %v", tc.n, got, tailName(tc.tailQ), tc.tail)
		}
		if beyond := float64(tc.n) * (1 - got.TailQ); got.TailQ > 0 && beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: %s has only %.1f samples beyond it", tc.n, tailName(got.TailQ), beyond)
		}
	}
	if got := summarize(seq(1001)).P50; got != 501 {
		t.Errorf("median of 1..1001 = %v, want 501", got)
	}
}

func TestTimingFormatCarriesUnitAndCount(t *testing.T) {
	got := summarize(seq(1000)).format("ms")
	for _, want := range []string{"p50 500 ms", "p99 990 ms", "n=1000"} {
		if !strings.Contains(got, want) {
			t.Errorf("format = %q, missing %q", got, want)
		}
	}
	if got := summarize(seq(5)).format("s"); !strings.Contains(got, "n=5") || !strings.Contains(got, "too few") {
		t.Errorf("small-sample format = %q", got)
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	r := ratio{Hits: 3, Attempts: 4}
	if r.value() != 0.75 || r.format() != "0.7500 (3 / 4)" {
		t.Errorf("ratio = %v, %q", r.value(), r.format())
	}
	if (ratio{}).value() != 0 {
		t.Error("empty ratio must read 0")
	}
}

func TestMetricSetPrintsUnitsAndFillsUnexercisedLayers(t *testing.T) {
	s := newMetricSet()
	s.addTiming("core.load_ms", summarize([]float64{1, 2, 3}))
	s.addRatio("core.encode_cache_hit_ratio", ratio{Hits: 9, Attempts: 10})
	got := s.only([]string{"core.load_ms", "core.encode_cache_hit_ratio", "registry.loads"})
	if m := got.values["registry.loads"]; m.Value != 0 || m.Unit != "count" {
		t.Errorf("unexercised layer = %+v, want 0 count", m)
	}
	var b bytes.Buffer
	got.write(&b, "")
	for _, want := range []string{"core.load_ms", " ms ", "(9 / 10)", "ratio", "not exercised"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, b.String())
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// names and units the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []string, got []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, program %q", kind, i, m.Name, want[i])
			}
			if u := unitOf(m.Name); m.Unit != u {
				t.Errorf("%s %s: BENCHMARK.json unit %q, program prints %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", e2eNames, spec.EndToEnd)
	check("per_layer", layerNames, spec.PerLayer)
}

// TestWindowStatsIgnoreOneStalledPart: a stall confined to one
// sub-window moves that part's figures, not the reported medians.
func TestWindowStatsIgnoreOneStalledPart(t *testing.T) {
	const window = 3 * time.Second
	var rs []answered
	for i := 0; i < 3000; i++ {
		due := time.Duration(i) * time.Millisecond
		lat := 1.0
		if due >= window/subWindows && due < 2*window/subWindows {
			lat = 100 // the stalled part
		}
		rs = append(rs, answered{due: due, lat: lat, docs: 1})
	}
	rs = append(rs, answered{due: 5 * time.Millisecond, lat: -1, docs: 32}) // a batch
	st := windowStatsOf(rs, window)
	if st.p50 != 1 || st.p99 != 1 {
		t.Errorf("p50 %v p99 %v, want 1 and 1: the stalled part leaked into the medians", st.p50, st.p99)
	}
	if st.docsPerS != 1000 {
		t.Errorf("docs/s %v, want the median part's 1000", st.docsPerS)
	}
	if st.minN != 3000/subWindows || st.all.N != 3000 {
		t.Errorf("minN %d all.N %d, want %d and 3000 (the batch is no latency sample)", st.minN, st.all.N, 3000/subWindows)
	}
}
