package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedRequests drives a fake server that
// stalls once. Requests due during the stall wait for the one connection;
// timed from their due time they show the stall, timed from send they
// would not.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()

	due := make([]time.Duration, 30)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	samples := runOpen(context.Background(), time.Now(), due, 1, func(i int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
	if len(samples) != len(due) {
		t.Fatalf("%d samples for %d arrivals", len(samples), len(due))
	}
	for _, s := range samples {
		if s.Err != nil {
			t.Fatal(s.Err)
		}
	}
	// Request 4 stalls; 5.. were due during the stall and queued.
	if l := samples[4].latency(); l < stall {
		t.Errorf("stalled request latency %v, want ≥ %v", l, stall)
	}
	for i := 5; i < 10; i++ {
		s := samples[i]
		behind := stall - (due[i] - due[4])
		if s.latency() < behind-5*time.Millisecond {
			t.Errorf("request %d: latency from due %v, want ≥ %v (it queued behind the stall)", i, s.latency(), behind)
		}
		if s.late() < behind-20*time.Millisecond {
			t.Errorf("request %d: sent %v late, want ≈ %v", i, s.late(), behind)
		}
		if fromSend := s.Done - s.Sent; fromSend > stall/2 {
			t.Errorf("request %d took %v from send; only the wait should be long", i, fromSend)
		}
	}
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = ms(s.late())
	}
	if worst := slices.Max(late); worst < ms(stall)/2 {
		t.Errorf("generator ran at most %v ms late; that hides the stall", worst)
	}
}

// TestClosedLoopTimesFromSend: a closed loop never sends late, so a
// request's latency is its own service time.
func TestClosedLoopTimesFromSend(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var next atomic.Int64
	samples := runClosed(ctx, 2, func() int { return int(next.Add(1) - 1) }, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	seen := map[int]bool{}
	for _, s := range samples {
		if s.late() != 0 || s.latency() < time.Millisecond {
			t.Errorf("sample %+v: want late 0 and latency ≥ 1ms", s)
		}
		if seen[s.Index] {
			t.Errorf("request %d sent twice", s.Index)
		}
		seen[s.Index] = true
	}
}

func TestOneSeedGivesOneRequestStream(t *testing.T) {
	dueA, arrA := tenantPlan(7, 5*time.Second)
	dueB, arrB := tenantPlan(7, 5*time.Second)
	if !reflect.DeepEqual(dueA, dueB) || !reflect.DeepEqual(arrA, arrB) {
		t.Fatal("seed 7 gave two different serve-tenants streams")
	}
	dueC, arrC := tenantPlan(8, 5*time.Second)
	if reflect.DeepEqual(dueA, dueC) || reflect.DeepEqual(arrA, arrC) {
		t.Fatal("seeds 7 and 8 gave the same serve-tenants stream")
	}
	// The arrival rate and the tenant mix follow the configuration.
	if n := float64(len(dueA)) / 5; n < 0.8*tenantRate || n > 1.2*tenantRate {
		t.Errorf("%.0f arrivals/s, want ≈ %.0f", n, tenantRate)
	}
	counts := make([]int, len(tenantWeights))
	for _, a := range arrA {
		counts[a.tenant]++
		if a.doc < 0 || a.doc >= tenantPool || (a.pin && a.tenant == published) {
			t.Fatalf("bad arrival %+v", a)
		}
	}
	if counts[0] <= counts[1] || counts[1] <= counts[len(counts)-1] {
		t.Errorf("tenant counts %v are not skewed toward the head tenant", counts)
	}

	kinds := func(seed int64) []int {
		p := &distinctPlan{seed: seed}
		out := make([]int, 2000)
		for k := range out {
			out[k] = p.req(p.next()).n
		}
		return out
	}
	if !reflect.DeepEqual(kinds(7), kinds(7)) {
		t.Fatal("seed 7 gave two different serve-distinct request mixes")
	}
	if reflect.DeepEqual(kinds(7), kinds(8)) {
		t.Fatal("seeds 7 and 8 gave the same serve-distinct request mix")
	}
	docs, batched := 0, 0
	for _, n := range kinds(7) {
		docs += n
		if n > 1 {
			batched += n
		}
	}
	if share := float64(batched) / float64(docs); share < 0.35 || share > 0.65 {
		t.Errorf("batches carry %.2f of the documents, want about half", share)
	}
}

func TestTrainCorpusSeedsFollowTheWorkloadSeed(t *testing.T) {
	a, b := trainCorpusSeeds(7), trainCorpusSeeds(8)
	if !reflect.DeepEqual(a, trainCorpusSeeds(7)) {
		t.Fatal("seed 7 gave two different corpus sets")
	}
	if len(a) != trainCorpora || a[0] != fixtureSeed || b[0] != fixtureSeed {
		t.Fatalf("corpus seeds %v and %v: want %d, the fixture seed first", a, b, trainCorpora)
	}
	seen := map[int64]bool{}
	for i, s := range a {
		if seen[s] || (i > 0 && s == b[i]) {
			t.Fatalf("corpus seeds %v (seed 7) and %v (seed 8) repeat a corpus", a, b)
		}
		seen[s] = true
	}
}

func TestPoissonArrivalsAreSeeded(t *testing.T) {
	a := poissonArrivals(rand.New(rand.NewSource(1)), 100, time.Second)
	b := poissonArrivals(rand.New(rand.NewSource(1)), 100, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same rng state, different schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v out of order or past the horizon", i, a[i])
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := newTracer()
	tr.add(1, 0, "parent", "r", 0, 10)
	tr.add(2, 1, "child", "r", 1, 3)
	tr.add(3, 1, "child", "r", 2, 5)
	tr.add(4, 1, "child", "r", 7, 8)
	self := tr.selfTimes()
	if self["parent"] != 5 || self["child"] != 6 {
		t.Errorf("self times %v, want parent 5 (10 − union 5), child 6", self)
	}
}
