package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Reporting rules, kept in one place so every workload prints alike:
//
//   - a timing is its median plus the highest percentile that still has
//     at least ten samples beyond it, with the sample count;
//   - a ratio prints its base (hits and attempts);
//   - every metric carries its unit.

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// timing summarises one latency sample set.
type timing struct {
	N   int
	P50 float64
	// TailQ is the reported tail percentile (0.99 for p99) and Tail its
	// value; TailQ is 0 when the sample is too small for any tail.
	TailQ float64
	Tail  float64
}

// summarize applies the timing rule to xs (any unit; xs is not modified).
func summarize(xs []float64) timing {
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t.P50 = quantile(s, 0.5)
	for _, q := range tailQuantiles {
		if float64(len(s))*(1-q) >= minBeyond-1e-9 {
			t.TailQ, t.Tail = q, quantile(s, q)
			break
		}
	}
	return t
}

// quantile is the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of xs, or 0 for an empty sample.
func median(xs []float64) float64 { return summarize(xs).P50 }

// tailName renders a tail quantile as a percentile label ("p99", "p99.9").
func tailName(q float64) string {
	return "p" + strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", q*100), "0"), ".")
}

// format renders the timing with its unit.
func (t timing) format(unit string) string {
	if t.N == 0 {
		return "no samples"
	}
	if t.TailQ == 0 {
		return fmt.Sprintf("p50 %.4g %s (n=%d, too few for a tail)", t.P50, unit, t.N)
	}
	return fmt.Sprintf("p50 %.4g %s, %s %.4g %s (n=%d)", t.P50, unit, tailName(t.TailQ), t.Tail, unit, t.N)
}

// ratio is a useful-outcome count over its attempts.
type ratio struct{ Hits, Attempts int64 }

// value is hits/attempts, 0 when nothing was attempted.
func (r ratio) value() float64 {
	if r.Attempts == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Attempts)
}

func (r ratio) format() string {
	return fmt.Sprintf("%.4f (%d / %d)", r.value(), r.Hits, r.Attempts)
}

// metric is one named value with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered set of named metrics plus the human-readable
// detail (sample counts, ratio bases) each one was derived from.
type metricSet struct {
	names  []string
	values map[string]metric
	detail map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]metric{}, detail: map[string]string{}}
}

// add records a metric, its unit derived from its name; detail may be
// empty.
func (s *metricSet) add(name string, v float64, detail string) {
	if _, ok := s.values[name]; !ok {
		s.names = append(s.names, name)
	}
	s.values[name] = metric{Value: v, Unit: unitOf(name)}
	s.detail[name] = detail
}

// addTiming records the median of t under name, with the full summary
// as detail.
func (s *metricSet) addTiming(name string, t timing) {
	s.add(name, t.P50, t.format(unitOf(name)))
}

// addRatio records a ratio under name with its base as detail.
func (s *metricSet) addRatio(name string, r ratio) {
	s.add(name, r.value(), r.format())
}

// get returns a recorded value (0 when absent).
func (s *metricSet) get(name string) float64 { return s.values[name].Value }

// only returns the subset of s named in names, in that order; a name s
// lacks is recorded as 0, since a layer that did no work on a workload
// measured nothing.
func (s *metricSet) only(names []string) *metricSet {
	out := newMetricSet()
	for _, n := range names {
		m, ok := s.values[n]
		if !ok {
			out.add(n, 0, "not exercised by this workload")
			continue
		}
		out.add(n, m.Value, s.detail[n])
	}
	return out
}

// write prints one "name value unit  detail" line per metric.
func (s *metricSet) write(w io.Writer, prefix string) {
	for _, n := range s.names {
		m := s.values[n]
		line := fmt.Sprintf("%s%-32s %14.6g %-6s", prefix, n, m.Value, m.Unit)
		if d := s.detail[n]; d != "" {
			line += "  " + d
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// unitOf derives a metric's unit from its name suffix, so a name and
// its unit never disagree.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "_util"),
		strings.HasSuffix(name, "_f1"), strings.HasSuffix(name, "_share"):
		return "ratio"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	}
	return "count"
}

// subWindows is how many equal parts a serve window is reported over:
// p50, p99 and throughput are each the median of the parts' values, so
// a host stall that hits one part moves one value, not the result.
const subWindows = 3

// answered is one request of a serve window as the report sees it.
type answered struct {
	due time.Duration
	// lat is the latency in ms; negative when the request is not a
	// latency sample (a batch, or a failed request).
	lat float64
	// docs is how many documents it answered correctly.
	docs int
}

// windowStats are a serve window's end-to-end figures.
type windowStats struct {
	p50, p99, docsPerS float64
	// minN is the fewest latency samples in any part.
	minN int
	// all summarises every latency of the window, for the report.
	all timing
}

// windowStatsOf splits requests by due time into subWindows parts of
// window and takes the median over the parts of their p50, p99 and
// documents answered per second.
func windowStatsOf(rs []answered, window time.Duration) windowStats {
	part := window / subWindows
	lats := make([][]float64, subWindows)
	docs := make([]int, subWindows)
	var all []float64
	for _, r := range rs {
		k := min(int(r.due/part), subWindows-1)
		docs[k] += r.docs
		if r.lat >= 0 {
			lats[k] = append(lats[k], r.lat)
			all = append(all, r.lat)
		}
	}
	st := windowStats{minN: len(rs), all: summarize(all)}
	var p50s, p99s, rates []float64
	for k := range lats {
		s := append([]float64(nil), lats[k]...)
		sort.Float64s(s)
		p50s = append(p50s, quantile(s, 0.5))
		p99s = append(p99s, quantile(s, 0.99))
		rates = append(rates, float64(docs[k])/part.Seconds())
		st.minN = min(st.minN, len(s))
	}
	st.p50, st.p99, st.docsPerS = median(p50s), median(p99s), median(rates)
	return st
}

// addServe records setup_s, p50_ms, p99_ms and docs_per_s of a serve
// window, and fails the run when a part has too few latency samples for
// its p99 to have ten beyond it.
func addServe(out *outcome, setup timing, st windowStats, latency string) {
	if st.minN < minSamples {
		out.fail("a %s sub-window has only %d latency samples, need %d", latency, st.minN, minSamples)
	}
	parts := fmt.Sprintf("median of %d sub-windows (≥%d samples each)", subWindows, st.minN)
	out.e2e.addTiming("setup_s", setup)
	out.e2e.add("p50_ms", st.p50, parts+"; whole window "+st.all.format("ms")+", "+latency)
	out.e2e.add("p99_ms", st.p99, parts)
	out.e2e.add("docs_per_s", st.docsPerS, parts+", documents answered correctly")
}
