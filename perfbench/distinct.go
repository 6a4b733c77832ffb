package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
)

// serveDistinct is the serve-distinct workload: `tdc serve -model` with
// the quick DF model, driven in a closed loop on nproc connections. No
// document is sent twice, so every one misses the encode cache.
type serveDistinct struct {
	o   options
	dir string
	fx  *fixture
	// base holds the held-out documents and their rendered texts;
	// document j of a pass is base[j % len(base)], altered per lap.
	base  []corpus.Document
	texts []string
}

const (
	// batchSize is the document count of a batch request; one request in
	// batchSize+1 is a batch, so singles and batches each carry about
	// half of the documents.
	batchSize = 32
	// spawns is how many times set-up starts the server; setup_s is the
	// median.
	spawns = 5
	// warmup runs the request mix before the timed window.
	warmup = 1500 * time.Millisecond
	// minSamples is the fewest single-request latencies a run may report.
	minSamples = 1000
	// probeDocs is how many documents the traced pass times in-process.
	probeDocs = 300
)

func (w *serveDistinct) prepare(ctx context.Context) error {
	fx, err := trainFixture(featsel.DF, fixtureSeed, filepath.Join(w.dir, "model.json"))
	if err != nil {
		return err
	}
	w.fx = fx
	if w.base, err = heldOutDocs(w.o.seed, 0.25); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.o.seed))
	w.texts = make([]string, len(w.base))
	for i := range w.base {
		w.texts[i] = docText(rng, w.base[i].Words)
	}
	return nil
}

// doc returns document j of a pass: its ID, text and labels. Past the
// first lap over the base documents, each lap drops a different word so
// that no content repeats within a pass.
func (w *serveDistinct) doc(j int) (string, string, []string) {
	n := len(w.base)
	b := &w.base[j%n]
	id := fmt.Sprintf("d%d", j)
	lap := j / n
	if lap == 0 {
		return id, w.texts[j%n], b.Categories
	}
	words := append([]string(nil), b.Words...)
	k := (lap - 1) % len(words)
	words = append(words[:k], words[k+1:]...)
	rng := rand.New(rand.NewSource(int64(splitmix(w.o.seed, uint64(j)))))
	return id, docText(rng, words), b.Categories
}

// distinctReq is one request of the stream: documents [first, first+n).
type distinctReq struct {
	first, n int
	status   int
	body     []byte
	err      error
}

// distinctPlan hands out requests in seed order: request k is a batch
// with probability 1/(batchSize+1), drawn from (seed, k), and takes the
// next unused documents.
type distinctPlan struct {
	seed    int64
	mu      sync.Mutex
	reqs    []*distinctReq
	nextDoc int
}

func (p *distinctPlan) next() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := len(p.reqs)
	n := 1
	if unitFloat(p.seed, uint64(k)) < 1.0/(batchSize+1) {
		n = batchSize
	}
	p.reqs = append(p.reqs, &distinctReq{first: p.nextDoc, n: n})
	p.nextDoc += n
	return k
}

func (p *distinctPlan) req(k int) *distinctReq {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reqs[k]
}

func (w *serveDistinct) run(ctx context.Context, tr *tracer) (*outcome, error) {
	out := newOutcome()
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	logf, err := os.Create(filepath.Join(w.dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	srv, setup, err := spawnMedian(client, w.o.tdc, logf, spawns, "-model", w.fx.path)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	plan := &distinctPlan{seed: w.o.seed}
	do := func(k int) error {
		r := plan.req(k)
		var body classifyRequest
		if r.n == 1 {
			id, text, _ := w.doc(r.first)
			body = classifyRequest{ID: id, Text: text}
		} else {
			for j := r.first; j < r.first+r.n; j++ {
				id, text, _ := w.doc(j)
				body.Documents = append(body.Documents, classifyDoc{ID: id, Text: text})
			}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reqID := fmt.Sprintf("r%d", k)
		name := "http.classify.single"
		if r.n > 1 {
			name = "http.classify.batch"
		}
		_, end := tr.begin(name, 0, reqID)
		r.status, r.body, r.err = post(client, srv.base+"/v1/classify", reqID, b)
		end()
		if r.err == nil && r.status != http.StatusOK {
			return fmt.Errorf("status %d", r.status)
		}
		return r.err
	}
	warmCtx, cancel := context.WithTimeout(ctx, warmup)
	warm := runClosed(warmCtx, conns, plan.next, do)
	cancel()
	var before, after serverStats
	if tr != nil {
		if before, err = readStats(client, srv.base); err != nil {
			return nil, err
		}
	}
	winCtx, cancel := context.WithTimeout(ctx, w.o.window())
	samples := runClosed(winCtx, conns, plan.next, do)
	cancel()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if tr != nil {
		if after, err = readStats(client, srv.base); err != nil {
			return nil, err
		}
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()

	// Every answer, warm-up included, is checked against the offline
	// classification of the same snapshot, outside the timed window.
	all := append(append([]sample(nil), warm...), samples...)
	correctDocs := w.verify(plan, all, out)
	f1 := newF1Set(w.fx.model.Categories())
	var batches []float64
	rs := make([]answered, 0, len(samples))
	for _, s := range samples {
		r := plan.req(s.Index)
		out.attempted++
		a := answered{due: s.Due, lat: -1}
		if !correctDocs[s.Index] {
			out.failed++
			rs = append(rs, a)
			continue
		}
		a.docs = r.n
		if r.n == 1 {
			a.lat = ms(s.latency())
		} else {
			batches = append(batches, ms(s.latency()))
		}
		rs = append(rs, a)
		var resp classifyResponse
		_ = json.Unmarshal(r.body, &resp)
		for i, res := range resp.Results {
			_, _, labels := w.doc(r.first + i)
			f1.observe(labels, res.Categories)
		}
	}
	st := windowStatsOf(rs, w.o.window())
	addServe(out, setup, st, "single-document requests timed from send")
	out.e2e.add("rss_mb", rss, "server VmHWM")
	addFixtureF1(out.e2e, w.fx)
	out.extra.addTiming("batch_p50_ms", summarize(batches))
	addServedF1(out.extra, f1)
	out.extra.addRatio("error_rate", ratio{Hits: out.failed, Attempts: out.attempted})

	if tr != nil {
		l := out.layers
		serveLayers(l, before, after, st.all)
		l.add("gen.late_p99_ms", 0, "closed loop: every request is sent when due")
		l.add("gen.sent", float64(len(samples)), "")
		l.add("gen.failed", float64(out.failed), "")
		docs := make([]probeDoc, 0, probeDocs)
		for j := 0; j < probeDocs && j < plan.nextDoc; j++ {
			id, text, _ := w.doc(j)
			docs = append(docs, probeDoc{id: id, text: text})
		}
		if err := probeServing(tr, l, out, w.fx.path, docs); err != nil {
			return nil, err
		}
		if err := probeRegistryLayer(ctx, tr, l, w.dir, w.fx.path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verify checks every recorded request against the offline answers and
// returns, per request index, whether it was answered correctly.
func (w *serveDistinct) verify(plan *distinctPlan, samples []sample, out *outcome) map[int]bool {
	ok := make(map[int]bool, len(samples))
	var mu sync.Mutex
	_ = parallel(len(samples), func(i int) error {
		s := samples[i]
		r := plan.req(s.Index)
		good := s.Err == nil && checkResponse(r.body, w.fx.sha, "", r.n, func(k int) (string, []string, error) {
			id, text, _ := w.doc(r.first + k)
			want, err := expectCategories(w.fx.model, id, text)
			return id, want, err
		}, out, &mu)
		if s.Err != nil {
			mu.Lock()
			out.fail("request %d: %v", s.Index, s.Err)
			mu.Unlock()
		}
		mu.Lock()
		ok[s.Index] = good
		mu.Unlock()
		return nil
	})
	return ok
}

// checkResponse validates one classify response: its snapshot hash, its
// version when want is set, its result count and IDs, and every
// document's categories against expect(k).
func checkResponse(body []byte, sha, version string, n int, expect func(k int) (string, []string, error),
	out *outcome, mu *sync.Mutex) bool {
	failf := func(format string, args ...any) bool {
		mu.Lock()
		out.fail(format, args...)
		mu.Unlock()
		return false
	}
	var resp classifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return failf("undecodable response: %v", err)
	}
	if resp.ModelHash != sha {
		return failf("model_hash %.12s, want %.12s", resp.ModelHash, sha)
	}
	if version != "" && resp.Version != version {
		return failf("version %q, want %q", resp.Version, version)
	}
	if len(resp.Results) != n {
		return failf("%d results for %d documents", len(resp.Results), n)
	}
	for k, res := range resp.Results {
		id, want, err := expect(k)
		if err != nil {
			return failf("offline classification of %s: %v", id, err)
		}
		if res.ID != id {
			return failf("result %d has id %q, want %q", k, res.ID, id)
		}
		if !sameStrings(res.Categories, want) {
			return failf("document %s: categories %v, offline %v", id, res.Categories, want)
		}
	}
	return true
}

// quantileOf is the nearest-rank q-quantile of an unsorted sample.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
