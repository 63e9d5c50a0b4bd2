package main

import (
	"math"
	"sync"
	"time"
)

// sample is one request of the open-loop generator, its instants measured
// from the generator's start.
type sample struct {
	due    time.Duration // when the schedule said to send it
	issued time.Duration // when the generator handed it to a connection
	done   time.Duration // when the response (or error) arrived
	ok     bool
}

// latency is measured from the due instant, so a stall that delays later
// requests counts against them too (no coordinated omission).
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how far behind its schedule the generator sent the request.
func (s sample) late() time.Duration { return s.issued - s.due }

// runOpenLoop calls do(k) for k = 0, 1, ..., n-1, due at start +
// k*interval, over at most workers concurrent requests. It is an
// open loop: the schedule never waits for responses. When every worker is
// busy the generator blocks and runs late; the lateness shows in each
// sample, and latency still counts from the due instant. It returns once
// every issued request has finished, samples in completion order.
func runOpenLoop(n int, interval time.Duration, workers int, do func(k int) bool) []sample {
	type job struct {
		k   int
		due time.Duration
	}
	start := time.Now()
	jobs := make(chan job) // unbuffered: a send waits for a free worker
	samples := make([]sample, 0, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				issued := time.Since(start)
				ok := do(j.k)
				s := sample{due: j.due, issued: issued, done: time.Since(start), ok: ok}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	for k := 0; k < n; k++ {
		due := time.Duration(k) * interval
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{k, due}
	}
	close(jobs)
	wg.Wait()
	return samples
}

// latencySummary condenses request samples. A failed request counts as
// missing any latency limit: its latency is +Inf in the percentiles.
type latencySummary struct {
	n, failed    int
	p50Ms, p99Ms float64
	lateMeanMs   float64 // how late the generator ran, mean and worst
	lateMaxMs    float64
}

func summarize(samples []sample) latencySummary {
	s := latencySummary{n: len(samples)}
	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	for i, x := range samples {
		lat[i] = ms(x.latency())
		if !x.ok {
			s.failed++
			lat[i] = math.Inf(1)
		}
		late[i] = ms(x.late())
		s.lateMaxMs = math.Max(s.lateMaxMs, late[i])
	}
	s.p50Ms = percentile(lat, 50)
	s.p99Ms = percentile(lat, 99)
	s.lateMeanMs = mean(late)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
