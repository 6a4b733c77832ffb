package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"
)

// gen is the benchmark's load generator. Both loops run in this one
// process with at most `conns` requests in flight, one per connection.

// sample is the client-side record of one request. Times are offsets
// from the loop's start.
type sample struct {
	Index int
	// Due is when the request was scheduled to be sent (open loop); in a
	// closed loop it equals Sent.
	Due, Sent, Done time.Duration
	Err             error
}

// latency is the request's latency as the user sees it: from when it
// was due, so a stall also charges the requests queued behind it.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// late is how far behind schedule the generator sent the request.
func (s sample) late() time.Duration { return s.Sent - s.Due }

// poissonArrivals draws the arrival offsets of a Poisson process of the
// given rate (per second) over [0, horizon). The same rng state gives
// the same schedule.
func poissonArrivals(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return out
		}
		out = append(out, d)
	}
}

// runOpen sends request i at start+due[i] through at most conns
// concurrent senders. A request whose due time passes while every sender
// is busy waits for the next free one; its latency still counts from the
// due time. do performs request i and reports its error.
func runOpen(ctx context.Context, start time.Time, due []time.Duration, conns int, do func(i int) error) []sample {
	out := make([]sample, len(due))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := time.Since(start)
				err := do(i)
				out[i] = sample{Index: i, Due: due[i], Sent: sent, Done: time.Since(start), Err: err}
			}
		}()
	}
	n := len(due)
dispatch:
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				n = i
				break dispatch
			}
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			n = i
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return out[:n]
}

// runClosed keeps conns senders busy until ctx ends: each sends its next
// request as soon as the previous one completes. next hands out request
// indices; do performs one.
func runClosed(ctx context.Context, conns int, next func() int, do func(i int) error) []sample {
	start := time.Now()
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next()
				sent := time.Since(start)
				err := do(i)
				s := sample{Index: i, Due: sent, Sent: sent, Done: time.Since(start), Err: err}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// skewedPick draws an index with probability proportional to weights.
func skewedPick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := rng.Float64() * total
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}

// splitmix derives an independent 64-bit stream value from (seed, i),
// so per-request choices do not depend on which sender asked first.
func splitmix(seed int64, i uint64) uint64 {
	z := uint64(seed) + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unitFloat maps splitmix output to [0, 1).
func unitFloat(seed int64, i uint64) float64 {
	return float64(splitmix(seed, i)>>11) / math.Exp2(53)
}
