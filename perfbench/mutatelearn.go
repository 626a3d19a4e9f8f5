package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/reprolab/opim/internal/diffusion"
	"github.com/reprolab/opim/internal/graph"
	"github.com/reprolab/opim/internal/learn"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
	"github.com/reprolab/opim/internal/server"
)

// The mutate-learn workload: writes beside reads. One opimd process with a
// checkpoint directory on local disk holds two graphs. A closed-loop
// client runs learning rounds on graph A (the default graph) — POST
// rounds, a cascade simulated client-side on the true weights (untimed),
// POST observations — and after every mlEvery-th round a structural batch
// of edge inserts and deletes on graph B followed by a derived snapshot of
// B's reader session. B is a graph of its own because a learning posterior
// refuses topology changes. It loads graph derivation, both repair paths
// and checkpoint encoding, while k = 10 keeps the bound term small.
const (
	mlScaleA        = 3200 // graph A: n = 510
	mlScaleB        = 400  // graph B: n = 4 082, m = 72 836
	mlK             = 10
	mlRoundRR       = 1000 // RR sets each round adds to the learner
	mlRounds        = 54   // learning rounds per 10 seconds
	mlEvery         = 4    // a structural batch follows every 4th round
	mlBatchEdges    = 20   // edge deletes, and as many inserts, per batch
	mlReaderPrefill = 100000
)

// mlOp is one operation's record, kept for the traced run's replays.
type mlOp struct {
	round    int64
	seeds    []int32
	attempts []learn.Attempt
	applied  int
	batch    []graph.Mutation // structural op: the batch sent to B
}

// mlPhase is one measured pass.
type mlPhase struct {
	tally         tally
	start         time.Time
	wall          time.Duration
	before, after obs.Snapshot
	cpu, heapMB   float64
	alphas        []float64
	ops           []mlOp
	clientMs      map[string][]float64
}

// startMutateLearn starts a daemon on a fresh checkpoint directory with
// graph B registered and both sessions created; the reader is prefilled.
func startMutateLearn(e *env, tag string) (*daemon, error) {
	dir := filepath.Join(e.work, "ml-checkpoints-"+tag)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := startDaemon(e.opimd, filepath.Join(e.work, "opimd-mutate-learn-"+tag+".log"),
		"-profile", "synth-pokec", "-scale", strconv.Itoa(mlScaleA), "-seed", "1", "-model", "IC",
		"-checkpoint-dir", dir, "-checkpoint-interval", "1h")
	if err != nil {
		return nil, err
	}
	steps := []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/graphs", map[string]any{"name": "b", "profile": "synth-pokec", "scale": mlScaleB, "seed": 1, "model": "IC"}},
		{http.MethodPost, "/sessions", map[string]any{"id": "learner", "k": mlK, "seed": e.inputSeed(10),
			"learn": map[string]any{"seed": e.inputSeed(11), "round_rr": mlRoundRR}}},
		{http.MethodPost, "/sessions", map[string]any{"id": "reader", "graph": "b", "k": mlK, "seed": e.inputSeed(12)}},
		{http.MethodPost, "/sessions/reader/advance?count=" + strconv.Itoa(mlReaderPrefill), nil},
		{http.MethodGet, "/sessions/reader/snapshot", nil},
	}
	for _, s := range steps {
		if err := d.do(s.method, s.path, s.body, nil); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

func runMutateLearnPhase(e *env, d *daemon, out *outcome, tr *tracer) (*mlPhase, error) {
	truthA, _, err := loadPokec(mlScaleA)
	if err != nil {
		return nil, err
	}
	gB, _, err := loadPokec(mlScaleB)
	if err != nil {
		return nil, err
	}
	sim := diffusion.NewSimulator(truthA)
	batchSrc := rng.New(e.inputSeed(3))
	rounds := e.scaled(mlRounds)
	p := &mlPhase{clientMs: make(map[string][]float64)}
	if p.before, err = d.metrics(); err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	// timed sends one request inside op span parent and adds its time to
	// *opMs.
	timed := func(parent *open, req int64, name, method, path string, body, resp any, opMs *float64) error {
		sp := tr.begin("server."+name, parent, req)
		t0 := time.Now()
		err := d.do(method, path, body, resp)
		el := ms(time.Since(t0))
		sp.end()
		*opMs += el
		p.clientMs[name] = append(p.clientMs[name], el)
		return err
	}
	record := func(start time.Time, opMs float64, ok bool) {
		p.tally.add(attempt{Due: start, Sent: start, Done: start.Add(time.Duration(opMs * float64(time.Millisecond))), OK: ok})
	}

	runtime.GC()
	t0 := time.Now()
	p.start = t0
	batches := 0
	for r := int64(1); r <= int64(rounds); r++ {
		req := int64(len(p.ops))
		op := tr.begin("harness.round", nil, req)
		start := time.Now()
		var opMs float64
		var rr server.RoundResponse
		err := timed(op, req, "rounds", http.MethodPost, "/sessions/learner/rounds", nil, &rr, &opMs)
		kind := "exploit"
		if r%2 == 1 {
			kind = "explore"
		}
		ok := err == nil && rr.Round == r && !rr.Replay && rr.Kind == kind &&
			len(rr.Seeds) == mlK && distinctInRange(rr.Seeds, truthA.N()) && rr.Alpha > 0
		out.check(ok, "round %d: %v; got round %d kind %q replay %v seeds %v α %v", r, err, rr.Round, rr.Kind, rr.Replay, rr.Seeds, rr.Alpha)
		if !ok {
			op.end()
			record(start, opMs, false)
			return nil, fmt.Errorf("round %d failed; the campaign cannot continue: %v", r, err)
		}
		p.alphas = append(p.alphas, rr.Alpha)

		sp := tr.begin("diffusion.cascade", op, req)
		_, trace := sim.RunICTrace(rr.Seeds, rng.New(e.inputSeed(uint64(1000+r))), nil)
		sp.end()
		atts := make([]learn.Attempt, len(trace))
		for i, a := range trace {
			atts[i] = learn.Attempt{From: a.From, To: a.To, Success: a.Success}
		}
		var ob server.ObservationResponse
		err = timed(op, req, "observations", http.MethodPost, "/sessions/learner/observations",
			server.ObservationRequest{Round: r, Attempts: atts}, &ob, &opMs)
		ok = err == nil && ob.Applied && ob.Round == r && ob.Attempts == len(atts)
		out.check(ok, "observation of round %d: %v; applied %v round %d attempts %d of %d", r, err, ob.Applied, ob.Round, ob.Attempts, len(atts))
		op.end()
		record(start, opMs, ok)
		p.ops = append(p.ops, mlOp{round: r, seeds: rr.Seeds, attempts: atts, applied: rr.Applied})

		if r%mlEvery != 0 {
			continue
		}
		batch := structuralBatch(gB, batchSrc)
		if gB, err = gB.WithMutations(batch); err != nil {
			return nil, fmt.Errorf("building batch %d: %w", batches+1, err)
		}
		batches++
		req = int64(len(p.ops))
		op = tr.begin("harness.structural", nil, req)
		start = time.Now()
		opMs = 0
		var up server.UpdateGraphResponse
		err = timed(op, req, "updates", http.MethodPost, "/graphs/b/updates", map[string]any{"updates": wireBatch(batch)}, &up, &opMs)
		ok = err == nil && up.Epoch == int64(batches) && up.Applied == len(batch)
		out.check(ok, "batch %d: %v; epoch %d applied %d of %d", batches, err, up.Epoch, up.Applied, len(batch))
		var snap snapshotBody
		err = timed(op, req, "snapshot", http.MethodGet, "/sessions/reader/snapshot", nil, &snap, &opMs)
		sok := err == nil && len(snap.Seeds) == mlK && distinctInRange(snap.Seeds, gB.N()) && snap.Alpha > 0
		out.check(sok, "reader snapshot after batch %d: %v; seeds %v α %v", batches, err, snap.Seeds, snap.Alpha)
		op.end()
		record(start, opMs, ok && sok)
		if sok {
			p.alphas = append(p.alphas, snap.Alpha)
		}
		p.ops = append(p.ops, mlOp{batch: batch})
	}
	p.wall = time.Since(t0)
	if p.after, err = d.metrics(); err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.heapMB, err = peakMB(d.pid()); err != nil {
		return nil, err
	}
	var info struct {
		Epoch int64 `json:"epoch"`
	}
	if err := d.do(http.MethodGet, "/graphs/b", nil, &info); err != nil {
		return nil, err
	}
	out.check(info.Epoch == int64(batches), "graph b ends at epoch %d, want the %d batches sent", info.Epoch, batches)
	return p, nil
}

// structuralBatch draws mlBatchEdges deletes of existing edges of g and as
// many inserts of absent ones, no edge touched twice.
func structuralBatch(g *graph.Graph, src *rng.Source) []graph.Mutation {
	touched := make(map[[2]int32]bool)
	var ms []graph.Mutation
	for len(ms) < mlBatchEdges {
		u := src.Int31n(g.N())
		to, _ := g.OutNeighbors(u)
		if len(to) == 0 {
			continue
		}
		v := to[src.Intn(len(to))]
		if touched[[2]int32{u, v}] {
			continue
		}
		touched[[2]int32{u, v}] = true
		ms = append(ms, graph.Mutation{Op: graph.OpEdgeDelete, From: u, To: v})
	}
	for len(ms) < 2*mlBatchEdges {
		u, v := src.Int31n(g.N()), src.Int31n(g.N())
		if u == v || touched[[2]int32{u, v}] || g.OutEdgeIndex(u, v) >= 0 {
			continue
		}
		touched[[2]int32{u, v}] = true
		ms = append(ms, graph.Mutation{Op: graph.OpEdgeInsert, From: u, To: v, P: 1 / float32(g.InDegree(v)+1)})
	}
	return ms
}

// wireBatch renders a batch as the updates endpoint's JSON ops.
func wireBatch(ms []graph.Mutation) []map[string]any {
	out := make([]map[string]any, len(ms))
	for i, m := range ms {
		w := map[string]any{"op": m.Op.String(), "from": m.From, "to": m.To}
		if m.Op == graph.OpEdgeInsert {
			w["p"] = m.P
		}
		out[i] = w
	}
	return out
}

func runMutateLearn(e *env) (*outcome, error) {
	out := newOutcome()
	out.meta["load_generator_priority_raised"] = asLoadGenerator()
	var d *daemon
	var setups []float64
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = startMutateLearn(e, strconv.Itoa(i)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { d.stop() }()
	out.metrics["setup_s"] = median(setups)
	out.meta["graph_a"] = pokecSpec(mlScaleA).String()
	out.meta["graph_b"] = pokecSpec(mlScaleB).String()

	p, err := runMutateLearnPhase(e, d, out, nil)
	if err != nil {
		return nil, err
	}
	ops := float64(p.tally.attempted)
	generated := counterDelta(p.before, p.after, "rrset_generated_total")
	regenerated := counterDelta(p.before, p.after, "rrset_regenerated_total")
	if !e.trace {
		out.tally = p.tally
		out.latencies()
		out.metrics["ops_per_s"] = float64(p.tally.attempted-p.tally.failed) / p.wall.Seconds()
		out.metrics["rr_sets_per_s"] = float64(generated+regenerated) / p.wall.Seconds()
		out.metrics["rr_sets_per_op"] = float64(regenerated) / ops
		out.metrics["alpha_mean"] = mean(p.alphas)
		out.metrics["heap_peak_mb"] = p.heapMB
		return out, nil
	}

	// Traced run: a fresh daemon runs the same operations with spans on;
	// the untraced pass above is the reference for the tracing overhead.
	d.stop()
	td, err := startMutateLearn(e, "traced")
	if err != nil {
		return nil, err
	}
	d = td
	tr := newTracer()
	tp, err := runMutateLearnPhase(e, d, out, tr)
	if err != nil {
		return nil, err
	}
	out.tally = tp.tally
	out.latencies()
	m := zeroLayerMetrics()
	daemonLayerMetrics(m, tp.before, tp.after, ops, ops)
	clientLayerMetrics(m, tp.clientMs, tp.before, tp.after)
	m["proc.cpu_s_per_op"] = tp.cpu / ops
	m["trace.overhead_frac"] = (sumLat(tp.tally) - sumLat(p.tally)) / sumLat(p.tally)
	m["trace.coverage_frac"] = tr.report(tp.start, tp.start.Add(tp.wall)).Coverage
	if err := replayMutateLearn(e, tr, tp, m); err != nil {
		return nil, err
	}
	self := tr.report(tr.origin, time.Now()).SelfMs
	for _, l := range traceLayers {
		m["trace.self_ms."+l] = self[l] / ops
	}
	if err := tr.write(e.tracePath("mutate-learn")); err != nil {
		return nil, err
	}
	out.metrics = m
	return out, nil
}

// sumLat is the total latency of a pass's operations.
func sumLat(t tally) float64 {
	var s float64
	for _, x := range t.lat {
		s += min(x, failLatencyMs)
	}
	return s
}

// replayMutateLearn re-derives in process what the daemon derived: the
// campaign's realizations of graph A (learn.Campaign.StartRound, which
// must need as many weight mutations as the daemon applied) and every
// batch applied to A and B, through graph.WithMutations and
// Graph.Fingerprint, each timed.
func replayMutateLearn(e *env, tr *tracer, p *mlPhase, m map[string]float64) error {
	gA, _, err := loadPokec(mlScaleA)
	if err != nil {
		return err
	}
	gB, _, err := loadPokec(mlScaleB)
	if err != nil {
		return err
	}
	camp := learn.NewCampaign(gA, e.inputSeed(11))
	var realizeMs, deriveMs, fpMs float64
	var rounds, derived int
	derive := func(g *graph.Graph, batch []graph.Mutation, top *open, req int64) (*graph.Graph, error) {
		sp := tr.begin("graph.derive", top, req)
		t0 := time.Now()
		ng, err := g.WithMutations(batch)
		deriveMs += ms(time.Since(t0))
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = tr.begin("graph.fingerprint", top, req)
		t0 = time.Now()
		ng.Fingerprint()
		fpMs += ms(time.Since(t0))
		sp.end()
		derived++
		return ng, nil
	}
	for i, op := range p.ops {
		req := int64(len(p.ops) + i)
		top := tr.begin("harness.replay", nil, req)
		if op.batch != nil {
			if gB, err = derive(gB, op.batch, top, req); err != nil {
				return err
			}
			top.end()
			continue
		}
		sp := tr.begin("learn.realize", top, req)
		t0 := time.Now()
		realization, _, err := camp.StartRound(gA)
		realizeMs += ms(time.Since(t0))
		sp.end()
		if err != nil {
			return err
		}
		rounds++
		if len(realization) != op.applied {
			return fmt.Errorf("replayed round %d needs %d weight mutations, the daemon applied %d", op.round, len(realization), op.applied)
		}
		if len(realization) > 0 {
			if gA, err = derive(gA, realization, top, req); err != nil {
				return err
			}
		}
		camp.ServeSeeds(op.seeds)
		if _, err := camp.Observe(op.round, op.attempts); err != nil {
			return err
		}
		top.end()
	}
	if rounds > 0 {
		m["learn.realize_ms"] = realizeMs / float64(rounds)
	}
	if derived > 0 {
		m["graph.derive_ms"] = deriveMs / float64(derived)
		m["graph.fingerprint_ms"] = fpMs / float64(derived)
	}
	// Allocations per RR set on graph A, the graph repair resamples most.
	s := rrset.NewSampler(gA, diffusion.IC)
	c := rrset.NewCollection(gA.N())
	a0 := heapAllocs()
	rrset.Generate(c, s, mlRoundRR, rng.New(e.inputSeed(13)), runtime.NumCPU())
	m["rrset.allocs_per_set"] = float64(heapAllocs()-a0) / float64(mlRoundRR)
	return nil
}
