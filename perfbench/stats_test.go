package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		ceiling float64
		p       float64
		beyond  int
	}{
		{n: 100, ceiling: 100, p: 90, beyond: 10},
		{n: 120, ceiling: 100, p: 90, beyond: 12},
		{n: 199, ceiling: 100, p: 90, beyond: 19},
		{n: 200, ceiling: 100, p: 95, beyond: 10},
		{n: 1000, ceiling: 100, p: 99, beyond: 10},
		{n: 10000, ceiling: 100, p: 99.9, beyond: 10},
		{n: 400, ceiling: 100, p: 95, beyond: 20},
		{n: 101, ceiling: 100, p: 90, beyond: 10},
		{n: 75, ceiling: 100, p: 75, beyond: 18},
		// Capped at p90, more samples only leave more beyond it.
		{n: 990, ceiling: tailCeiling, p: 90, beyond: 99},
		{n: 10000, ceiling: tailCeiling, p: 90, beyond: 1000},
		{n: 101, ceiling: tailCeiling, p: 90, beyond: 10},
		{n: 99, ceiling: tailCeiling, p: 75, beyond: 24},
	} {
		p, beyond, ok := tailPercentile(tc.n, tc.ceiling)
		if !ok || p != tc.p || beyond != tc.beyond {
			t.Errorf("tailPercentile(%d, %v) = p%v with %d beyond (ok=%v), want p%v with %d", tc.n, tc.ceiling, p, beyond, ok, tc.p, tc.beyond)
		}
		if beyond < minBeyondTail {
			t.Errorf("tailPercentile(%d, %v) leaves %d samples beyond, want ≥ %d", tc.n, tc.ceiling, beyond, minBeyondTail)
		}
	}
	if _, _, ok := tailPercentile(19, 100); ok {
		t.Error("tailPercentile(19, 100): no candidate leaves 10 beyond, want ok=false")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	// Due at 0, sent 50ms late behind a stall, served in 10ms: the caller
	// waited 60ms, and the generator was 50ms late.
	a := attempt{Due: t0, Sent: t0.Add(50 * time.Millisecond), Done: t0.Add(60 * time.Millisecond), OK: true}
	if got := a.latency(); got != 60*time.Millisecond {
		t.Errorf("latency = %v, want 60ms (from due, not from send)", got)
	}
	if got := a.lag(); got != 50*time.Millisecond {
		t.Errorf("lag = %v, want 50ms", got)
	}
	var tl tally
	tl.add(a)
	if tl.lat[0] != 60 || tl.lagMs[0] != 50 {
		t.Errorf("tally recorded latency %v ms, lag %v ms; want 60, 50", tl.lat[0], tl.lagMs[0])
	}
}

func TestWindowRateIsMedianOfWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	// 20 operations of 2 units each, 100ms apart, except that the 5th
	// window stalls for a second.
	var done []time.Time
	var work []float64
	at := t0
	for i := 0; i < 20; i++ {
		at = at.Add(100 * time.Millisecond)
		if i == 9 {
			at = at.Add(time.Second)
		}
		done = append(done, at)
		work = append(work, 2)
	}
	// Completions arrive out of order from concurrent senders.
	done[0], done[1] = done[1], done[0]
	if got := windowRate(t0, done, work); math.Abs(got-20) > 1e-9 {
		t.Errorf("windowRate = %v units/s, want the unstalled 20", got)
	}
}

func TestRefusedAndFailedCountAgainstAttempts(t *testing.T) {
	t0 := time.Unix(0, 0)
	var tl tally
	for i := 0; i < 90; i++ {
		tl.add(attempt{Due: t0, Sent: t0, Done: t0.Add(time.Millisecond), OK: true})
	}
	// Ten refused or failed requests, each answered quickly.
	for i := 0; i < 10; i++ {
		tl.add(attempt{Due: t0, Sent: t0, Done: t0.Add(time.Microsecond), OK: false})
	}
	if tl.attempted != 100 || tl.failed != 10 {
		t.Fatalf("attempted %d failed %d, want 100 and 10", tl.attempted, tl.failed)
	}
	// The fast refusals must rank as the slowest attempts.
	if got := tl.latencyMs(50); got != 1 {
		t.Errorf("p50 = %v ms, want 1", got)
	}
	if got := tl.latencyMs(95); got != failLatencyMs {
		t.Errorf("p95 = %v ms, want the failure latency %v", got, failLatencyMs)
	}
	if math.IsInf(tl.latencyMs(100), 0) {
		t.Error("reported percentile is infinite; want it capped at the client timeout")
	}
	p, lat, beyond, ok := tl.tail(tailCeiling)
	if !ok || p != 90 || beyond != 10 || lat != 1 {
		t.Errorf("tail = p%v %v ms with %d beyond (ok=%v), want p90 1 ms with 10", p, lat, beyond, ok)
	}
}
