package main

import (
	"math"
	"sort"
	"time"
)

// minBeyondTail is how many samples must lie beyond the reported tail
// percentile: fewer, and the "tail" is one or two outliers, not a
// distribution.
const minBeyondTail = 10

// tailCandidates are the conventional reporting percentiles the tail rule
// chooses from, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailCeiling is the highest percentile latency_tail_ms may be. On a
// shared 2-core host the requests beyond p90 are mostly the ones the
// host's scheduler delayed: p95 of the same code moved by more than a
// quarter between runs, while p90 still lies in the slowest operations'
// own latency. The uncapped percentile is reported beside it, ungated.
const tailCeiling = 90

// rank is the 1-based nearest-rank position of percentile p among n
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest candidate percentile, at most
// ceiling, that leaves at least minBeyondTail of n samples beyond it, and
// that count. ok is false when n is too small for any candidate.
func tailPercentile(n int, ceiling float64) (p float64, beyond int, ok bool) {
	for _, p := range tailCandidates {
		if b := n - rank(p, n); p <= ceiling && b >= minBeyondTail {
			return p, b, true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank percentile p of xs (which it does
// not modify); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median is percentile 50 with linear interpolation between the two middle
// samples, for summarising repeated measurements (set-up times).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// attempt is one operation as the load generator saw it. In an open loop
// Due is when the schedule wanted it sent, which may be before Sent when
// the generator ran late; in a closed loop Due equals Sent.
type attempt struct {
	Due, Sent, Done time.Time
	// OK is false for a refused request (429, 409, 503), a timeout, a
	// transport error or a wrong output.
	OK bool
}

// latency is the operation's latency counted from when it was due, so a
// stall also charges the requests queued behind it.
func (a attempt) latency() time.Duration { return a.Done.Sub(a.Due) }

// lag is how late the generator sent the operation.
func (a attempt) lag() time.Duration { return a.Sent.Sub(a.Due) }

// tally summarises a workload's attempts. Failed attempts count against
// the attempts and rank as slower than any success, so a refused request
// misses every latency limit.
type tally struct {
	attempted, failed int
	lat               []float64 // ms per attempt; +Inf for failures
	lagMs             []float64
}

func (t *tally) add(a attempt) {
	t.attempted++
	lat := ms(a.latency())
	if !a.OK {
		t.failed++
		lat = math.Inf(1)
	}
	t.lat = append(t.lat, lat)
	t.lagMs = append(t.lagMs, ms(a.lag()))
}

// failLatencyMs stands in for an infinite latency in the reported
// percentiles: the client timeout, which every failure is charged with.
const failLatencyMs = float64(clientTimeout / time.Millisecond)

// latencyMs returns percentile p of the attempts' due-time latencies.
func (t *tally) latencyMs(p float64) float64 {
	return math.Min(percentile(t.lat, p), failLatencyMs)
}

// tail applies the tail rule, capped at ceiling, to the attempts: the
// percentile, its latency and the number of samples beyond it.
func (t *tally) tail(ceiling float64) (p, latMs float64, beyond int, ok bool) {
	p, beyond, ok = tailPercentile(len(t.lat), ceiling)
	if !ok {
		return 0, 0, 0, false
	}
	return p, t.latencyMs(p), beyond, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rateWindows is how many consecutive windows a throughput is measured
// over; the reported rate is their median, so a transient slowdown of the
// machine moves it less than it moves the mean.
const rateWindows = 10

// windowRate splits operations that began at start and completed at done
// (each carrying work units) into rateWindows runs of consecutive
// completions, and returns the median over windows of work per second.
func windowRate(start time.Time, done []time.Time, work []float64) float64 {
	idx := make([]int, len(done))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return done[idx[a]].Before(done[idx[b]]) })
	windows := min(rateWindows, len(done))
	var rates []float64
	prev := start
	for w := 0; w < windows; w++ {
		lo, hi := w*len(idx)/windows, (w+1)*len(idx)/windows
		var sum float64
		for _, i := range idx[lo:hi] {
			sum += work[i]
		}
		end := done[idx[hi-1]]
		rates = append(rates, sum/end.Sub(prev).Seconds())
		prev = end
	}
	return median(rates)
}
