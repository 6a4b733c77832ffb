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
	"sync"
	"time"

	"temporaldoc/internal/featsel"
	"temporaldoc/internal/registry"
)

// serveTenants is the serve-tenants workload: `tdc serve -models-dir`
// over four quick-profile tenants with at most three resident, driven by
// an open loop of Poisson arrivals. Each tenant has a small hot pool of
// documents that repeat with stable IDs; beside the reads, one tail
// tenant periodically gets a new version and the registry is rescanned.
type serveTenants struct {
	o       options
	dir     string
	tenants []*tenant
	// alt is a second snapshot of the published tenant (another training
	// seed), so consecutive published versions differ in bytes.
	alt *fixture
	// expect maps a snapshot hash to the offline categories of the
	// published tenant's pool (for alt) or of its own tenant's pool.
	expect map[string][][]string
	passes int
}

// tenant is one published model and its hot document pool.
type tenant struct {
	name   string
	fx     *fixture
	ids    []string
	texts  []string
	labels [][]string
}

var (
	tenantMethods = []featsel.Method{featsel.DF, featsel.IG, featsel.MI, featsel.Nouns}
	// tenantWeights is the skewed tenant mix of the arrivals. The two
	// tail tenants take 9% of the requests between them, so about 4% are
	// cold loads: the top percent of latencies lies inside the cold-load
	// mode, not on its edge, and p99 follows the load time. With 3% tail
	// requests (about 1.3% cold loads) p99 sat on that edge and spread
	// 0.3 between seeds.
	tenantWeights = []float64{0.78, 0.13, 0.06, 0.03}
)

const (
	// tenantRate is the open-loop arrival rate, requests per second. At
	// 240 req/s the hot tenants' requests queued behind cold loads on
	// both connections often enough that p99 swung 43-60 ms between
	// runs of one period; at 160 req/s it held 44-51 ms.
	tenantRate = 160.0
	// tenantPool is the hot pool per tenant: 32 documents × 10
	// categories of encodings fit core's 8192-entry encode cache.
	tenantPool = 32
	// pinShare of the requests to the tenants that are never republished
	// name their version (v1) explicitly.
	pinShare = 0.1
	// publishEvery is the period of the new-version publishes.
	publishEvery = 5 * time.Second
	// residentBound is the server's -resident, one below the tenant count:
	// the two tail tenants take turns in the last slot and cold-load. At a
	// bound of 2 a tail request evicts a hot tenant too, emptying its
	// encode cache, and the cache hit ratio falls to about 0.4.
	residentBound = 3
	// published is the index of the tenant that gets new versions: a
	// tail tenant (mi), so loading a new version stalls its own few
	// requests like any cold load. Republishing df stalled 82% of the
	// traffic behind one load on both connections, a burst whose size
	// varied severalfold between runs.
	published = 2
)

// publishEpoch stamps manifests; the registry orders versions by it.
var publishEpoch = time.Date(2007, 4, 15, 0, 0, 0, 0, time.UTC)

func (w *serveTenants) prepare(ctx context.Context) error {
	fxDir := filepath.Join(w.dir, "fixtures")
	if err := os.MkdirAll(fxDir, 0o755); err != nil {
		return err
	}
	w.tenants = make([]*tenant, len(tenantMethods))
	err := parallel(len(tenantMethods)+1, func(i int) error {
		if i == len(tenantMethods) {
			fx, err := trainFixture(tenantMethods[published], fixtureSeed+1, filepath.Join(fxDir, "alt.json"))
			w.alt = fx
			return err
		}
		m := tenantMethods[i]
		fx, err := trainFixture(m, fixtureSeed, filepath.Join(fxDir, string(m)+".json"))
		w.tenants[i] = &tenant{name: string(m), fx: fx}
		return err
	})
	if err != nil {
		return err
	}
	docs, err := heldOutDocs(w.o.seed, 0.02)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.o.seed))
	w.expect = map[string][][]string{}
	for k, t := range w.tenants {
		for i := 0; i < tenantPool; i++ {
			d := docs[k*tenantPool+i]
			t.ids = append(t.ids, fmt.Sprintf("%s-%03d", t.name, i))
			t.texts = append(t.texts, docText(rng, d.Words))
			t.labels = append(t.labels, d.Categories)
		}
	}
	for k, t := range w.tenants {
		fxs := []*fixture{t.fx}
		if k == published {
			fxs = append(fxs, w.alt)
		}
		for _, fx := range fxs {
			want := make([][]string, tenantPool)
			for i := range want {
				if want[i], err = expectCategories(fx.model, t.ids[i], t.texts[i]); err != nil {
					return err
				}
			}
			w.expect[fx.sha] = want
		}
	}
	return nil
}

// tenantArrival is one planned request: which tenant, which pool
// document, and whether it pins version v1.
type tenantArrival struct {
	tenant, doc int
	pin         bool
}

// tenantPlan draws a request stream from the seed: Poisson arrival
// times at tenantRate over horizon, the tenant mix, the documents and
// the pins. The same seed gives the same stream.
func tenantPlan(seed int64, horizon time.Duration) ([]time.Duration, []tenantArrival) {
	rng := rand.New(rand.NewSource(seed))
	due := poissonArrivals(rng, tenantRate, horizon)
	arr := make([]tenantArrival, len(due))
	for i := range arr {
		a := tenantArrival{tenant: skewedPick(rng, tenantWeights), doc: rng.Intn(tenantPool)}
		a.pin = rng.Float64() < pinShare && a.tenant != published
		arr[i] = a
	}
	return due, arr
}

// liveVersion is one published version of the published tenant, with
// the window offsets at which its publish started and its rescan ended.
type liveVersion struct {
	name, sha            string
	pubStart, rescanDone time.Duration
}

type tenantResult struct {
	status int
	body   []byte
}

func (w *serveTenants) run(ctx context.Context, tr *tracer) (*outcome, error) {
	out := newOutcome()
	w.passes++
	models := filepath.Join(w.dir, fmt.Sprintf("pass-%d", w.passes), "models")
	if err := os.MkdirAll(models, 0o755); err != nil {
		return nil, err
	}
	for k, t := range w.tenants {
		opts := registry.PublishOptions{CreatedAt: publishEpoch.Add(time.Duration(k) * time.Second)}
		if _, err := registry.Publish(models, t.name, "v1", t.fx.path, opts); err != nil {
			return nil, err
		}
	}
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	logf, err := os.Create(filepath.Join(w.dir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	srv, setup, err := spawnMedian(client, w.o.tdc, logf, spawns,
		"-models-dir", models, "-resident", fmt.Sprint(residentBound))
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	send := func(a tenantArrival, reqID string, res *tenantResult) error {
		t := w.tenants[a.tenant]
		body := classifyRequest{ID: t.ids[a.doc], Text: t.texts[a.doc], Model: t.name}
		if a.pin {
			body.Version = "v1"
		}
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		_, end := tr.begin("http.classify.single", 0, reqID)
		res.status, res.body, err = post(client, srv.base+"/v1/classify", reqID, b)
		end()
		if err == nil && res.status != http.StatusOK {
			return fmt.Errorf("status %d: %s", res.status, res.body)
		}
		return err
	}

	// Warm-up: the same mix from its own stream, unmeasured.
	warmDue, warmArr := tenantPlan(w.o.seed^0x5eed, warmup)
	warmRes := make([]tenantResult, len(warmArr))
	warm := runOpen(ctx, time.Now(), warmDue, conns, func(i int) error {
		return send(warmArr[i], fmt.Sprintf("w%d", i), &warmRes[i])
	})
	var before, after serverStats
	if tr != nil {
		if before, err = readStats(client, srv.base); err != nil {
			return nil, err
		}
	}

	due, arr := tenantPlan(w.o.seed, w.o.window())
	res := make([]tenantResult, len(arr))
	pub := w.tenants[published]
	var mu sync.Mutex
	versions := []liveVersion{{name: "v1", sha: pub.fx.sha, pubStart: -1, rescanDone: -1}}
	var publishMs, rescanMs []float64
	var pubErr error
	start := time.Now()
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for k := 1; time.Duration(k)*publishEvery < w.o.window(); k++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(k) * publishEvery)))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return
			}
			fx := pub.fx
			if k%2 == 1 {
				fx = w.alt
			}
			v := liveVersion{name: fmt.Sprintf("v%d", k+1), sha: fx.sha, pubStart: time.Since(start)}
			_, end := tr.begin("registry.Publish", 0, v.name)
			p0 := time.Now()
			_, err := registry.Publish(models, pub.name, v.name, fx.path,
				registry.PublishOptions{CreatedAt: publishEpoch.Add(time.Duration(k) * time.Hour)})
			p1 := time.Now()
			end()
			if err == nil {
				_, end = tr.begin("registry.rescan", 0, v.name)
				var status int
				var body []byte
				status, body, err = post(client, srv.base+"/v1/reload", "reload-"+v.name, nil)
				end()
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("reload: status %d: %s", status, body)
				}
			}
			v.rescanDone = time.Since(start)
			mu.Lock()
			if err != nil && pubErr == nil {
				pubErr = err
			}
			versions = append(versions, v)
			publishMs = append(publishMs, ms(p1.Sub(p0)))
			rescanMs = append(rescanMs, ms(time.Since(p1)))
			mu.Unlock()
		}
	}()
	samples := runOpen(ctx, start, due, conns, func(i int) error {
		return send(arr[i], fmt.Sprintf("r%d", i), &res[i])
	})
	pubWG.Wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if pubErr != nil {
		out.fail("publish: %v", pubErr)
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

	// Checks, outside the window. Warm-up precedes every publish, so all
	// of its answers come from v1.
	var checkMu sync.Mutex
	for i, s := range warm {
		w.check(warmArr[i], s, warmRes[i], versions[:1], out, &checkMu)
	}
	f1 := newF1Set(pub.fx.model.Categories())
	scored := map[[2]int]bool{}
	firstLive := make([]time.Duration, len(versions))
	var late []float64
	rs := make([]answered, 0, len(samples))
	for i, s := range samples {
		out.attempted++
		late = append(late, ms(s.late()))
		v, ok := w.check(arr[i], s, res[i], versions, out, &checkMu)
		if !ok {
			out.failed++
			rs = append(rs, answered{due: s.Due, lat: -1})
			continue
		}
		rs = append(rs, answered{due: s.Due, lat: ms(s.latency()), docs: 1})
		// F1 counts each answered pool document once, so hot documents
		// do not dominate it.
		if key := [2]int{arr[i].tenant, arr[i].doc}; !scored[key] {
			scored[key] = true
			t := w.tenants[arr[i].tenant]
			f1.observe(t.labels[arr[i].doc], w.expect[versions[v].sha][arr[i].doc])
		}
		if arr[i].tenant == published && v > 0 && (firstLive[v] == 0 || s.Done < firstLive[v]) {
			firstLive[v] = s.Done
		}
	}
	var live []float64
	for v := 1; v < len(versions); v++ {
		if firstLive[v] > 0 {
			live = append(live, ms(firstLive[v]-versions[v].pubStart))
		}
	}
	st := windowStatsOf(rs, w.o.window())
	addServe(out, setup, st, fmt.Sprintf("single-document requests timed from due, %.0f req/s offered", tenantRate))
	out.e2e.add("rss_mb", rss, "server VmHWM")
	fxs := make([]*fixture, len(w.tenants))
	for k, t := range w.tenants {
		fxs[k] = t.fx
	}
	addFixtureF1(out.e2e, fxs...)
	addServedF1(out.extra, f1)
	out.extra.addTiming("publish_live_ms", summarize(live))
	out.extra.addRatio("error_rate", ratio{Hits: out.failed, Attempts: out.attempted})
	lateT := summarize(late)
	out.extra.add("gen.late_p99_ms", lateT.Tail, "send behind schedule: "+lateT.format("ms"))

	if tr != nil {
		ls := out.layers
		serveLayers(ls, before, after, st.all)
		ls.add("gen.late_p99_ms", lateT.Tail, lateT.format("ms"))
		ls.add("gen.sent", float64(len(samples)), "")
		ls.add("gen.failed", float64(out.failed), "")
		hits := counter(before, after, "registry.hits")
		attempts := hits + counter(before, after, "registry.misses") + counter(before, after, "registry.singleflight.coalesced")
		ls.addRatio("registry.hit_ratio", ratio{Hits: hits, Attempts: attempts})
		ls.add("registry.attempts", float64(attempts), "")
		ls.add("registry.loads", float64(counter(before, after, "registry.loads")), "")
		ls.add("registry.evictions", float64(counter(before, after, "registry.evictions")), "")
		ls.addTiming("registry.publish_ms", summarize(publishMs))
		ls.addTiming("registry.rescan_ms", summarize(rescanMs))
		if err := w.probeRegistry(ctx, tr, ls, models); err != nil {
			return nil, err
		}
		// The in-process probes use the hot tenant, which most requests name.
		hot := w.tenants[0]
		docs := make([]probeDoc, tenantPool)
		for i := range docs {
			docs[i] = probeDoc{id: hot.ids[i], text: hot.texts[i]}
		}
		if err := probeServing(tr, ls, out, hot.fx.path, docs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check validates one answer and returns the index of the version that
// served it. A pinned request must get v1. An unpinned one may get the
// latest version whose rescan had finished when it was sent, or any
// later one whose publish began before the answer arrived.
func (w *serveTenants) check(a tenantArrival, s sample, r tenantResult, versions []liveVersion,
	out *outcome, mu *sync.Mutex) (int, bool) {
	failf := func(format string, args ...any) (int, bool) {
		mu.Lock()
		out.fail(format, args...)
		mu.Unlock()
		return 0, false
	}
	if s.Err != nil {
		return failf("request %d: %v", s.Index, s.Err)
	}
	t := w.tenants[a.tenant]
	var resp classifyResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return failf("request %d: undecodable response: %v", s.Index, err)
	}
	if resp.Model != t.name {
		return failf("request %d: model %q, want %q", s.Index, resp.Model, t.name)
	}
	v, sha := 0, t.fx.sha
	if a.tenant == published {
		v = -1
		floor := 0
		for k, lv := range versions {
			if lv.rescanDone <= s.Sent {
				floor = k
			}
			if lv.name == resp.Version {
				v = k
			}
		}
		switch {
		case a.pin && resp.Version != "v1":
			return failf("request %d pinned v1, served %q", s.Index, resp.Version)
		case v < 0:
			return failf("request %d: unknown version %q", s.Index, resp.Version)
		case !a.pin && (v < floor || (v > 0 && versions[v].pubStart >= s.Done)):
			return failf("request %d: version %q was not live while it ran", s.Index, resp.Version)
		}
		sha = versions[v].sha
	} else if resp.Version != "v1" {
		return failf("request %d: version %q, want v1", s.Index, resp.Version)
	}
	ok := checkResponse(r.body, sha, resp.Version, 1, func(int) (string, []string, error) {
		return t.ids[a.doc], w.expect[sha][a.doc], nil
	}, out, mu)
	return v, ok
}

// probeRegistry times Registry.Acquire on non-resident models: with one
// resident slot, every acquire of another tenant is a cold load.
func (w *serveTenants) probeRegistry(ctx context.Context, tr *tracer, l *metricSet, models string) error {
	reg, err := registry.Open(registry.Config{Root: models, MaxResident: 1})
	if err != nil {
		return err
	}
	for round := 0; round < 2; round++ {
		for _, t := range w.tenants {
			_, end := tr.begin("registry.Acquire.cold", 0, t.name)
			_, err := reg.Acquire(ctx, t.name, "v1")
			end()
			if err != nil {
				return err
			}
		}
	}
	l.addTiming("registry.cold_load_ms", summarize(msSamples(tr.durations("registry.Acquire.cold"))))
	return nil
}
