package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/reprolab/opim/internal/bound"
	"github.com/reprolab/opim/internal/cliutil"
	"github.com/reprolab/opim/internal/core"
	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/maxcover"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
)

// The opimc workload: closed-loop OPIM-C⁺ solves (core.Maximize) on
// synth-pokec at scale 100 (n = 16 328, m = 293 809) under IC, one caller,
// RR generation on every CPU. It is the paper's conventional-IM claim with
// no HTTP or I/O; the bound term and RR sampling dominate a solve.
const (
	opimcScale   = 100
	opimcK       = 50
	opimcEps     = 0.1
	opimcSolves  = 120 // per 10 seconds of run length
	opimcReplays = 10  // solves the traced run replays layer by layer
	setupRepeats = 7   // set-ups per in-process run; setup_s is their median
)

// pokecSpec is the synth-pokec graph at a scale divisor. Its generator
// seed is fixed: the dataset is the same for every workload seed, which
// only drives the operations run on it.
func pokecSpec(scale int) cliutil.GraphSpec {
	return cliutil.GraphSpec{Profile: "synth-pokec", Scale: scale, Seed: 1, Model: "IC"}
}

func loadPokec(scale int) (*graph.Graph, diffusion.Model, error) { return pokecSpec(scale).Load() }

// opimcPhase is one pass over the workload's solves.
type opimcPhase struct {
	wall         time.Duration
	tally        tally
	rr, rounds   int64
	alphaSum     float64
	cpu          float64
	before, last obs.Snapshot
	seeds        [][]int32
	rrPerSolve   []int64
	start        time.Time
	done         []time.Time // completion of each solve
}

// rates are the pass's solve and RR-set throughputs, each the median over
// windows of consecutive solves.
func (p *opimcPhase) rates() (opsPerS, rrPerS float64) {
	ones := make([]float64, len(p.done))
	rr := make([]float64, len(p.done))
	for i := range ones {
		ones[i], rr[i] = 1, float64(p.rrPerSolve[i])
	}
	return windowRate(p.start, p.done, ones), windowRate(p.start, p.done, rr)
}

func runOpimc(e *env) (*outcome, error) {
	out := newOutcome()
	var sampler *rrset.Sampler
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		g, model, err := loadPokec(opimcScale)
		if err != nil {
			return nil, err
		}
		sampler = rrset.NewSampler(g, model)
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	n := sampler.Graph().N()
	delta := 1 / float64(n)
	workers := runtime.NumCPU()
	solves := e.scaled(opimcSolves)
	out.meta["graph"] = fmt.Sprintf("%s n=%d m=%d", pokecSpec(opimcScale), n, sampler.Graph().M())
	out.meta["solves"] = solves

	// One unmeasured solve first, so lazy runtime set-up and heap growth
	// are not charged to the first measured one.
	if _, err := core.Maximize(sampler, opimcK, opimcEps, delta, core.Options{Seed: e.inputSeed(0), Variant: core.Plus, Workers: workers}); err != nil {
		return nil, err
	}

	phase := func(tr *tracer) (*opimcPhase, error) {
		runtime.GC()
		p := &opimcPhase{before: obs.Default().Snapshot()}
		cpu0, err := cpuSeconds(pidSelf)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		p.start = t0
		for i := 1; i <= solves; i++ {
			seed := e.inputSeed(uint64(i))
			root := tr.begin("core.maximize", nil, int64(i))
			var round *open
			if tr != nil {
				round = tr.begin("core.round", root, int64(i))
			}
			rounds := 0
			opts := core.Options{Seed: seed, Variant: core.Plus, Workers: workers,
				OnRound: func(int, *core.Snapshot) {
					rounds++
					round.end()
					round = tr.begin("core.round", root, int64(i))
				}}
			start := time.Now()
			res, err := core.Maximize(sampler, opimcK, opimcEps, delta, opts)
			done := time.Now()
			round.end()
			root.end()
			if err != nil {
				return nil, fmt.Errorf("solve %d: %w", i, err)
			}
			ok := checkSolve(out, i, res, n, rounds)
			p.tally.add(attempt{Due: start, Sent: start, Done: done, OK: ok})
			p.rr += res.RRGenerated
			p.rounds += int64(rounds)
			p.alphaSum += res.Alpha
			p.seeds = append(p.seeds, res.Seeds)
			p.rrPerSolve = append(p.rrPerSolve, res.RRGenerated)
			p.done = append(p.done, done)
		}
		p.wall = time.Since(t0)
		cpu1, err := cpuSeconds(pidSelf)
		if err != nil {
			return nil, err
		}
		p.cpu = cpu1 - cpu0
		p.last = obs.Default().Snapshot()
		return p, nil
	}

	p, err := phase(nil)
	if err != nil {
		return nil, err
	}
	ops := float64(solves)
	if !e.trace {
		out.tally = p.tally
		out.latencies()
		out.metrics["ops_per_s"], out.metrics["rr_sets_per_s"] = p.rates()
		out.metrics["rr_sets_per_op"] = float64(p.rr) / ops
		out.metrics["alpha_mean"] = p.alphaSum / ops
		heap, err := peakMB(pidSelf)
		if err != nil {
			return nil, err
		}
		out.metrics["heap_peak_mb"] = heap
		return out, nil
	}

	// Traced run: the untraced pass above is the reference for the tracing
	// overhead; the traced pass gives the per-layer numbers.
	tr := newTracer()
	tp, err := phase(tr)
	if err != nil {
		return nil, err
	}
	out.tally = tp.tally
	for i := range tp.seeds {
		out.check(equalSeeds(tp.seeds[i], p.seeds[i]) && tp.rrPerSolve[i] == p.rrPerSolve[i],
			"solve %d: traced and untraced passes disagree on seeds or RR count", i+1)
	}
	m := zeroLayerMetrics()
	_, genMs := timerDelta(tp.before, tp.last, "rrset_generate_seconds")
	_, idxMs := timerDelta(tp.before, tp.last, "rrset_index_build_seconds")
	m["rrset.sample_ms"] = (genMs - idxMs) / ops
	m["rrset.index_ms"] = idxMs / ops
	m["rrset.edges_examined_per_op"] = float64(counterDelta(tp.before, tp.last, "rrset_edges_examined_total")) / ops
	m["core.rounds_per_op"] = float64(tp.rounds) / ops
	m["proc.cpu_s_per_op"] = tp.cpu / ops
	m["trace.overhead_frac"] = (tp.wall.Seconds() - p.wall.Seconds()) / p.wall.Seconds()
	m["trace.coverage_frac"] = tr.report(tp.start, tp.start.Add(tp.wall)).Coverage

	// Layer-by-layer replay of the first solves: the same algorithm as
	// core.Maximize, with each call into rrset and maxcover timed. It must
	// reproduce the solve's seeds and RR count exactly.
	replays := min(opimcReplays, solves)
	var greedyMs, boundsMs float64
	var allocs, sets int64
	for i := 1; i <= replays; i++ {
		r := replayMaximize(tr, sampler, e.inputSeed(uint64(i)), int64(i), delta, workers)
		out.check(equalSeeds(r.seeds, tp.seeds[i-1]) && r.rr == tp.rrPerSolve[i-1],
			"replay of solve %d: seeds or RR count (%d) differ from core.Maximize's (%d)", i, r.rr, tp.rrPerSolve[i-1])
		greedyMs += r.greedyMs
		boundsMs += r.withBoundsMs - r.greedyMs
		allocs += r.allocs
		sets += r.rr
	}
	m["maxcover.greedy_ms"] = greedyMs / float64(replays)
	m["maxcover.bounds_ms"] = boundsMs / float64(replays)
	m["rrset.allocs_per_set"] = float64(allocs) / float64(sets)
	// Self time per operation: the core spans cover the traced pass's
	// solves; every other layer's spans come from the replays.
	self := tr.report(tr.origin, time.Now()).SelfMs
	for _, l := range traceLayers {
		m["trace.self_ms."+l] = self[l] / float64(replays)
	}
	m["trace.self_ms.core"] = self["core"] / ops
	if err := tr.write(e.tracePath("opimc")); err != nil {
		return nil, err
	}
	out.metrics = m
	out.latencies()
	return out, nil
}

// checkSolve verifies one OPIM-C result: k distinct in-range seeds, and the
// 1−1/e−ε guarantee unless the solve ran out of rounds (i_max).
func checkSolve(out *outcome, i int, res *core.CResult, n int32, rounds int) bool {
	ok := len(res.Seeds) == opimcK && distinctInRange(res.Seeds, n)
	out.check(ok, "solve %d: want %d distinct seeds in [0,%d), got %v", i, opimcK, n, res.Seeds)
	certOK := res.Alpha >= bound.OneMinusInvE-opimcEps || !res.Certified
	out.check(certOK, "solve %d: certified with α=%v below 1-1/e-ε", i, res.Alpha)
	out.check(rounds == res.Rounds, "solve %d: OnRound fired %d times, result says %d rounds", i, rounds, res.Rounds)
	return ok && certOK
}

func distinctInRange(seeds []int32, n int32) bool {
	seen := make(map[int32]bool, len(seeds))
	for _, s := range seeds {
		if s < 0 || s >= n || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

func equalSeeds(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayResult is one replayed solve.
type replayResult struct {
	seeds                  []int32
	rr                     int64
	greedyMs, withBoundsMs float64
	allocs                 int64
}

// replayMaximize re-runs OPIM-C (core.Maximize with the Plus variant and
// no base seeds) from its public parts, timing each layer. Greedy and
// GreedyWithBounds each keep their own scratch across rounds, as
// Maximize's single selection would, so their difference is the O(kn)
// bound term of Table 1.
func replayMaximize(tr *tracer, sampler *rrset.Sampler, seed uint64, req int64, delta float64, workers int) replayResult {
	n := sampler.Graph().N()
	thetaMax := bound.ThetaMax(n, opimcK, opimcEps, delta)
	theta0 := bound.Theta0(n, opimcK, opimcEps, delta)
	imax := bound.ImaxRounds(thetaMax, theta0)
	perRound := delta / (3 * float64(imax))
	root := rng.New(seed)
	base1, base2 := root.Split(1), root.Split(2)
	r1, r2 := rrset.NewCollection(n), rrset.NewCollection(n)
	size := max(int64(math.Ceil(theta0)), 1)
	target := bound.OneMinusInvE - opimcEps
	greedySc, boundsSc := maxcover.NewScratch(), maxcover.NewScratch()
	cov := rrset.NewCoverageScratch()
	var res replayResult
	top := tr.begin("harness.replay", nil, req)
	defer top.end()
	for i := 1; ; i++ {
		if i == imax {
			size = max(size, int64(math.Ceil(thetaMax)))
		}
		for _, h := range []struct {
			c    *rrset.Collection
			base *rng.Source
		}{{r1, base1}, {r2, base2}} {
			a0 := heapAllocs()
			sp := tr.begin("rrset.generate", top, req)
			rrset.Generate(h.c, sampler, int(size-int64(h.c.Count())), h.base, workers)
			sp.end()
			res.allocs += heapAllocs() - a0
		}
		sp := tr.begin("maxcover.greedy", top, req)
		t0 := time.Now()
		greedy := greedySc.Greedy(r1, opimcK)
		res.greedyMs += ms(time.Since(t0))
		sp.end()
		sp = tr.begin("bound.greedy_with_bounds", top, req)
		t0 = time.Now()
		sel := boundsSc.GreedyWithBounds(r1, opimcK)
		res.withBoundsMs += ms(time.Since(t0))
		sp.end()
		if !equalSeeds(greedy.Seeds, sel.Seeds) {
			res.seeds = nil // Greedy and GreedyWithBounds must select alike
			return res
		}
		sp = tr.begin("rrset.coverage", top, req)
		lambda2 := r2.CoverageWith(cov, sel.Seeds)
		sp.end()
		theta1, theta2 := int64(r1.Count()), int64(r2.Count())
		alpha := bound.Alpha(
			bound.SigmaLower(float64(lambda2), n, theta2, perRound),
			bound.SigmaUpper(float64(sel.LambdaU), n, theta1, perRound))
		res.seeds, res.rr = sel.Seeds, theta1+theta2
		if alpha >= target || i >= imax {
			return res
		}
		size *= 2
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the cumulative count of heap objects the process has
// allocated.
func heapAllocs() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// zeroLayerMetrics starts a traced run's per-layer metrics at 0: a layer
// the workload does not exercise reports 0.
func zeroLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
