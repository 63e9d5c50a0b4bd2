package main

import (
	"math"
	"testing"
	"time"
)

// TestSummarizeCountsFailuresAsMisses checks that latency counts from the
// due instant and that a failed request lands beyond every percentile.
func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	msd := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	samples := []sample{
		{due: msd(0), issued: msd(0), done: msd(1), ok: true},    // latency 1
		{due: msd(10), issued: msd(12), done: msd(15), ok: true}, // late 2, latency 5
		{due: msd(20), issued: msd(26), done: msd(27), ok: true}, // late 6, latency 7
		{due: msd(30), issued: msd(30), done: msd(31), ok: false},
	}
	s := summarize(samples)
	if s.n != 4 || s.failed != 1 {
		t.Fatalf("n %d failed %d, want 4 and 1", s.n, s.failed)
	}
	if s.p50Ms != 5 {
		t.Errorf("p50 %v ms, want 5 (from the due instant, not the send)", s.p50Ms)
	}
	if !math.IsInf(s.p99Ms, 1) {
		t.Errorf("p99 %v, want +Inf: the failed request misses every limit", s.p99Ms)
	}
	if s.lateMeanMs != 2 || s.lateMaxMs != 6 {
		t.Errorf("late mean %v max %v, want 2 and 6", s.lateMeanMs, s.lateMaxMs)
	}
}

// TestOpenLoopKeepsSchedule drives the generator faster than its one
// worker can serve: the schedule must not slow down, so later requests
// are sent late and their latency, counted from the due instant, grows
// well beyond the service time.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	const (
		interval = 2 * time.Millisecond
		service  = 10 * time.Millisecond
	)
	samples := runOpenLoop(20, interval, 1, func(int) bool {
		time.Sleep(service)
		return true
	})
	if len(samples) != 20 {
		t.Fatalf("%d requests issued, want 20", len(samples))
	}
	for i, s := range samples {
		if s.due != time.Duration(i)*interval {
			t.Fatalf("request %d due at %v, want %v", i, s.due, time.Duration(i)*interval)
		}
		if s.issued < s.due || s.done < s.issued+service {
			t.Fatalf("request %d: due %v issued %v done %v", i, s.due, s.issued, s.done)
		}
		if s.latency() != s.late()+(s.done-s.issued) {
			t.Fatalf("request %d: latency %v is not lateness %v plus service %v", i, s.latency(), s.late(), s.done-s.issued)
		}
	}
	last := samples[len(samples)-1]
	if last.late() < 2*service || last.latency() < 3*service {
		t.Errorf("last request late %v, latency %v: a stalled open loop must show the backlog", last.late(), last.latency())
	}
	if sum := summarize(samples); sum.lateMeanMs <= 0 || sum.p50Ms <= ms(service) {
		t.Errorf("summary %+v hides the backlog", sum)
	}
}
