package main

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/opim/internal/maxcover"
	"github.com/reprolab/opim/internal/obs"
	"github.com/reprolab/opim/internal/rng"
	"github.com/reprolab/opim/internal/rrset"
	"github.com/reprolab/opim/internal/server"
)

// The serve workload: one opimd process with its default serving flags and
// no checkpoint directory, driven over loopback. Interactive sessions run
// on the default graph, synth-pokec at scale 400 (n = 4 082); background
// sessions run on a second catalog graph, synth-orkut at scale 400
// (n = 7 681, m = 580 844), whose RR sets cost ~300× more sampling per
// byte kept, so the background fill overlaps the whole schedule in little
// memory. Background sessions fill from a prefill to their max_rr under
// the deficit-weighted sampler while an open-loop schedule of seeded
// Poisson arrivals reads every session and advances and solves on the
// interactive ones; a closed loop of solves then measures capacity. It
// loads the server layer and background sampling; the bound term runs
// only in the derived snapshots.
const (
	serveScale       = 400
	serveBgProfile   = "synth-orkut"
	serveBgScale     = 400
	serveK           = 50
	serveBackground  = 8
	serveInteractive = 4
	serveBgPrefill   = 1000
	serveBgFill      = 25000 // RR sets each background session adds, per 10 seconds
	serveBgWorkers   = 1     // background quanta sample on one core, leaving one for requests
	serveIxPrefill   = 40000
	serveAdvance     = 500 // RR sets per /advance
	serveRate        = 66  // open-loop requests per second
	serveCapacityOps = 600 // closed-loop solves per 10 seconds
	serveSenders     = 2   // sending goroutines, = nproc on the reference machine
	daemonSetups     = 3   // daemon set-ups per run; setup_s is their median
	fillPoll         = 50 * time.Millisecond
)

// The request mix, as cumulative shares.
const (
	mixStatus  = 0.30 // GET status, any session
	mixPeek    = 0.60 // GET snapshot?peek=1, any session
	mixAdvance = 0.85 // POST advance, interactive sessions
	// The rest, 15 %, are GET snapshot (derived) on interactive sessions.
)

type reqKind int

const (
	kStatus reqKind = iota
	kPeek
	kAdvance
	kSnapshot
)

var kindName = [...]string{"status", "peek", "advance", "snapshot"}

type serveReq struct {
	at      time.Duration // due offset from the phase start
	kind    reqKind
	session string
}

// snapshotBody is the part of a /snapshot response the benchmark checks.
type snapshotBody struct {
	Seeds  []int32 `json:"seeds"`
	Alpha  float64 `json:"alpha"`
	Theta1 int64   `json:"theta1"`
	Theta2 int64   `json:"theta2"`
}

// statusBody is the part of a /status or /advance response it checks.
type statusBody struct {
	NumRR int64 `json:"num_rr"`
}

func bgID(i int) string { return "bg" + strconv.Itoa(i) }
func ixID(i int) string { return "ix" + strconv.Itoa(i) }

// serveSchedule builds n requests with exactly the mix above, each kind
// spread evenly over its sessions, in a seeded random order, due at seeded
// exponential gaps at rate per second (open loop) or all at 0 (closed
// loop, rate 0). Fixing the composition keeps the work of a schedule the
// same for every seed; the seed changes only the order and the arrivals.
// solvesOnly makes every request a derived snapshot.
func serveSchedule(src *rng.Source, n int, rate float64, solvesOnly bool) []serveReq {
	var interactive, all []string
	for i := 0; i < serveInteractive; i++ {
		interactive = append(interactive, ixID(i))
	}
	all = append(all, interactive...)
	for i := 0; i < serveBackground; i++ {
		all = append(all, bgID(i))
	}
	reqs := make([]serveReq, 0, n)
	add := func(kind reqKind, upTo float64, sessions []string) {
		for j := 0; len(reqs) < int(math.Round(upTo*float64(n))); j++ {
			reqs = append(reqs, serveReq{kind: kind, session: sessions[j%len(sessions)]})
		}
	}
	if !solvesOnly {
		add(kStatus, mixStatus, all)
		add(kPeek, mixPeek, all)
		add(kAdvance, mixAdvance, interactive)
	}
	add(kSnapshot, 1, interactive)
	src.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	if rate > 0 {
		var at float64
		for i := range reqs {
			at += -math.Log(1-src.Float64()) / rate
			reqs[i].at = time.Duration(at * float64(time.Second))
		}
	}
	return reqs
}

// serveState is the load generator's view of one daemon's sessions.
type serveState struct {
	d        *daemon
	out      *outcome
	mu       sync.Mutex
	nodes    map[string]int32     // node count of each session's graph, by id prefix
	advanced map[string]int       // acknowledged advances per interactive session
	alphas   []float64            // α of derived snapshots served in the open loop
	clientMs map[string][]float64 // client-side ms per request, by kind
}

// exec sends one request and checks its response.
func (s *serveState) exec(r serveReq, tr *tracer, req int64, openLoop bool) bool {
	path := "/sessions/" + r.session
	sp := tr.begin("server."+kindName[r.kind], nil, req)
	t0 := time.Now()
	var ok bool
	switch r.kind {
	case kStatus:
		var st statusBody
		err := s.d.do(http.MethodGet, path+"/status", nil, &st)
		ok = err == nil && st.NumRR > 0
	case kPeek, kSnapshot:
		q := "/snapshot"
		if r.kind == kPeek {
			q += "?peek=1"
		}
		var snap snapshotBody
		err := s.d.do(http.MethodGet, path+q, nil, &snap)
		ok = err == nil && len(snap.Seeds) == serveK && distinctInRange(snap.Seeds, s.nodes[r.session[:2]]) && snap.Alpha > 0 && snap.Alpha <= 1
		if ok && r.kind == kSnapshot && openLoop {
			s.mu.Lock()
			s.alphas = append(s.alphas, snap.Alpha)
			s.mu.Unlock()
		}
	case kAdvance:
		var st statusBody
		err := s.d.do(http.MethodPost, path+"/advance?count="+strconv.Itoa(serveAdvance), nil, &st)
		ok = err == nil && st.NumRR > 0
		if ok {
			s.mu.Lock()
			s.advanced[r.session]++
			s.mu.Unlock()
		}
	}
	elapsed := ms(time.Since(t0))
	sp.end()
	s.mu.Lock()
	s.clientMs[kindName[r.kind]] = append(s.clientMs[kindName[r.kind]], elapsed)
	s.mu.Unlock()
	s.out.check(ok, "%s %s failed or returned a wrong answer", kindName[r.kind], r.session)
	return ok
}

// startServe starts a daemon and creates, prefills and solves once on
// every session, so peeks have an answer.
func startServe(e *env, logName string) (*daemon, error) {
	d, err := startDaemon(e.opimd, filepath.Join(e.work, logName),
		"-profile", "synth-pokec", "-scale", strconv.Itoa(serveScale), "-seed", "1", "-model", "IC")
	if err != nil {
		return nil, err
	}
	bgGraph := map[string]any{"name": "social", "profile": serveBgProfile, "scale": serveBgScale, "seed": 1, "model": "IC"}
	if err := d.do(http.MethodPost, "/graphs", bgGraph, nil); err != nil {
		d.stop()
		return nil, err
	}
	type create struct {
		ID      string `json:"id"`
		Graph   string `json:"graph,omitempty"`
		K       int    `json:"k"`
		Seed    uint64 `json:"seed"`
		MaxRR   int64  `json:"max_rr,omitempty"`
		Workers int    `json:"workers,omitempty"`
	}
	type advance struct {
		ID    string `json:"id"`
		Count int    `json:"count"`
	}
	var body struct {
		Create  []create  `json:"create"`
		Advance []advance `json:"advance"`
	}
	var ids []string
	for i := 0; i < serveBackground; i++ {
		body.Create = append(body.Create, create{ID: bgID(i), Graph: "social", K: serveK, Seed: e.inputSeed(uint64(100 + i)), MaxRR: bgMaxRR(e), Workers: serveBgWorkers})
		body.Advance = append(body.Advance, advance{ID: bgID(i), Count: serveBgPrefill})
		ids = append(ids, bgID(i))
	}
	for i := 0; i < serveInteractive; i++ {
		body.Create = append(body.Create, create{ID: ixID(i), K: serveK, Seed: ixSeed(e, i)})
		body.Advance = append(body.Advance, advance{ID: ixID(i), Count: serveIxPrefill})
		ids = append(ids, ixID(i))
	}
	var resp struct {
		Failed int `json:"failed"`
	}
	if err := d.do(http.MethodPost, "/sessions/bulk", body, &resp); err != nil || resp.Failed != 0 {
		d.stop()
		return nil, fmt.Errorf("creating sessions: %v (%d failed)", err, resp.Failed)
	}
	for _, id := range ids {
		if err := d.do(http.MethodGet, "/sessions/"+id+"/snapshot", nil, nil); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

func ixSeed(e *env, i int) uint64 { return e.inputSeed(uint64(200 + i)) }

// bgMaxRR is the budget every background session fills to.
func bgMaxRR(e *env) int64 { return int64(serveBgPrefill + e.scaled(serveBgFill)) }

// servePhase is one measured pass: open loop, then closed-loop capacity.
type servePhase struct {
	open, capacity     tally
	fill, openWall     time.Duration
	capacityRate       float64 // closed-loop solves per second
	before, after      obs.Snapshot
	cpu, heapMB        float64
	state              *serveState
	meanOpenLatencyMs  float64
	sendLagP99Ms       float64
	openFrom, openDone time.Time
}

func runServePhase(e *env, d *daemon, out *outcome, tr *tracer) (*servePhase, error) {
	st := &serveState{d: d, out: out, nodes: make(map[string]int32), advanced: make(map[string]int), clientMs: make(map[string][]float64)}
	for prefix, graph := range map[string]string{"ix": "default", "bg": "social"} {
		var info server.GraphInfo
		if err := d.do(http.MethodGet, "/graphs/"+graph, nil, &info); err != nil {
			return nil, err
		}
		st.nodes[prefix] = info.N
	}
	p := &servePhase{state: st}
	// The open loop is independent users over all sessions. The closed
	// loop measures the capacity for solves: one client derives snapshots
	// of the interactive sessions back to back. Their cost is computation
	// rather than loopback round trips, and they leave the sessions as
	// they found them, so every window sees the same work.
	openReqs := serveSchedule(rng.New(e.inputSeed(1)), serveRate*e.seconds, serveRate, false)
	capReqs := serveSchedule(rng.New(e.inputSeed(2)), e.scaled(serveCapacityOps), 0, true)
	var err error
	if p.before, err = d.metrics(); err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	runtime.GC()

	var bg []string
	for i := 0; i < serveBackground; i++ {
		bg = append(bg, bgID(i))
	}
	t0 := time.Now()
	p.openFrom = t0
	if err := d.do(http.MethodPost, "/sessions/bulk", map[string]any{"start": bg}, nil); err != nil {
		return nil, err
	}
	fillDone := make(chan error, 1)
	go func() { fillDone <- waitFilled(d, t0, bgMaxRR(e), &p.fill) }()
	p.open, _ = sendAll(st, tr, t0, openReqs, serveSenders, true, 0)
	p.openDone = time.Now()
	p.openWall = p.openDone.Sub(t0)
	if err := <-fillDone; err != nil {
		return nil, err
	}
	p.capacity, p.capacityRate = sendAll(st, tr, time.Now(), capReqs, 1, false, int64(len(openReqs)))

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
	p.meanOpenLatencyMs = sumLat(p.open) / float64(len(p.open.lat))
	p.sendLagP99Ms = percentile(p.open.lagMs, 99)

	// Every background session ends at exactly max_rr; every interactive
	// one holds its prefill plus the advances it acknowledged.
	var list struct {
		Sessions []struct {
			ID      string `json:"id"`
			NumRR   int64  `json:"num_rr"`
			Running bool   `json:"running"`
		} `json:"sessions"`
	}
	if err := d.do(http.MethodGet, "/sessions", nil, &list); err != nil {
		return nil, err
	}
	got := make(map[string]int64)
	for _, s := range list.Sessions {
		got[s.ID] = s.NumRR
	}
	for _, id := range bg {
		out.check(got[id] == bgMaxRR(e), "background session %s ends at %d RR sets, want max_rr %d", id, got[id], bgMaxRR(e))
	}
	for i := 0; i < serveInteractive; i++ {
		id := ixID(i)
		want := int64(serveIxPrefill + serveAdvance*st.advanced[id])
		out.check(got[id] == want, "interactive session %s holds %d RR sets, want prefill+acknowledged advances = %d", id, got[id], want)
	}
	return p, nil
}

// sendAll sends reqs from senders goroutines, each taking the next
// request when it is free, and waits for them. Open loop: each request is
// sent at t0+at, or as soon as a sender is free if that is later, and its
// latency counts from t0+at. Closed loop (all at 0): each sender sends its
// next request when its previous one completes. It also returns the
// completion rate of successful requests, the median over windows.
// reqBase numbers the requests for the trace.
func sendAll(st *serveState, tr *tracer, t0 time.Time, reqs []serveReq, senders int, openLoop bool, reqBase int64) (tally, float64) {
	res := make([]attempt, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := t0.Add(reqs[i].at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if !openLoop {
					due = sent
				}
				ok := st.exec(reqs[i], tr, reqBase+int64(i), openLoop)
				res[i] = attempt{Due: due, Sent: sent, Done: time.Now(), OK: ok}
			}
		}()
	}
	wg.Wait()
	var t tally
	done := make([]time.Time, len(res))
	work := make([]float64, len(res))
	for i, a := range res {
		t.add(a)
		done[i] = a.Done
		if a.OK {
			work[i] = 1
		}
	}
	return t, windowRate(t0, done, work)
}

// waitFilled polls the lock-free session list until every background
// session has reached max_rr, and stores how long that took from t0.
func waitFilled(d *daemon, t0 time.Time, maxRR int64, fill *time.Duration) error {
	deadline := t0.Add(150 * time.Second)
	for {
		var list struct {
			Sessions []struct {
				ID    string `json:"id"`
				NumRR int64  `json:"num_rr"`
			} `json:"sessions"`
		}
		if err := d.do(http.MethodGet, "/sessions", nil, &list); err != nil {
			return err
		}
		full := 0
		for _, s := range list.Sessions {
			if len(s.ID) > 2 && s.ID[:2] == "bg" && s.NumRR >= maxRR {
				full++
			}
		}
		if full == serveBackground {
			*fill = time.Since(t0)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("background sessions not full after %v (%d of %d)", time.Since(t0), full, serveBackground)
		}
		time.Sleep(fillPoll)
	}
}

func runServe(e *env) (*outcome, error) {
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
		if d, err = startServe(e, fmt.Sprintf("opimd-serve-%d.log", i)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { d.stop() }()
	out.metrics["setup_s"] = median(setups)
	out.meta["graph"] = pokecSpec(serveScale).String()
	out.meta["background_graph"] = fmt.Sprintf("profile=%s&scale=%d&seed=1", serveBgProfile, serveBgScale)
	out.meta["open_loop_requests"] = serveRate * e.seconds
	out.meta["open_loop_rate_per_s"] = serveRate

	p, err := runServePhase(e, d, out, nil)
	if err != nil {
		return nil, err
	}
	bgSets := float64(serveBackground * e.scaled(serveBgFill))
	ops := float64(p.open.attempted + p.capacity.attempted)
	out.meta["background_fill_s"] = p.fill.Seconds()
	out.meta["open_loop_s"] = p.openWall.Seconds()
	out.meta["harness.send_lag_ms"] = p.sendLagP99Ms
	out.meta["send_lag_p50_ms"] = percentile(p.open.lagMs, 50)
	perKind := make(map[string]float64)
	for kind, xs := range p.state.clientMs {
		perKind[kind] = percentile(xs, 50)
	}
	out.meta["client_p50_ms_by_kind"] = perKind
	if !e.trace {
		out.tally = p.open
		out.latencies()
		out.tally.attempted += p.capacity.attempted
		out.tally.failed += p.capacity.failed
		out.metrics["ops_per_s"] = p.capacityRate
		out.metrics["rr_sets_per_s"] = bgSets / p.fill.Seconds()
		out.metrics["rr_sets_per_op"] = float64(counterDelta(p.before, p.after, "rrset_generated_total")) / ops
		out.metrics["alpha_mean"] = mean(p.state.alphas)
		out.metrics["heap_peak_mb"] = p.heapMB
		return out, nil
	}

	// Traced run: a fresh daemon, set up the same way, runs the same
	// schedule with client spans on; the untraced pass above is the
	// reference for the tracing overhead.
	d.stop()
	td, err := startServe(e, "opimd-serve-traced.log")
	if err != nil {
		return nil, err
	}
	d = td
	tr := newTracer()
	tp, err := runServePhase(e, d, out, tr)
	if err != nil {
		return nil, err
	}
	out.tally = tp.open
	out.latencies()
	out.tally.attempted += tp.capacity.attempted
	out.tally.failed += tp.capacity.failed
	m := zeroLayerMetrics()
	daemonLayerMetrics(m, tp.before, tp.after, ops, float64(out.tally.attempted))
	clientLayerMetrics(m, tp.state.clientMs, tp.before, tp.after)
	m["proc.cpu_s_per_op"] = tp.cpu / ops
	m["harness.send_lag_ms"] = tp.sendLagP99Ms
	m["trace.overhead_frac"] = (tp.meanOpenLatencyMs - p.meanOpenLatencyMs) / p.meanOpenLatencyMs
	m["trace.coverage_frac"] = tr.report(tp.openFrom, tp.openDone).Coverage

	// Replay the interactive sessions' final selection in process: their
	// R1 half is the first num_rr/2 sets of the session seed's stream 1, so
	// Greedy and GreedyWithBounds on it must pick the daemon's seeds.
	g, model, err := loadPokec(serveScale)
	if err != nil {
		return nil, err
	}
	sampler := rrset.NewSampler(g, model)
	var greedyMs, boundsMs float64
	for i := 0; i < serveInteractive; i++ {
		var snap snapshotBody
		if err := d.do(http.MethodGet, "/sessions/"+ixID(i)+"/snapshot", nil, &snap); err != nil {
			return nil, err
		}
		req := int64(len(tp.open.lat) + len(tp.capacity.lat) + i)
		top := tr.begin("harness.replay", nil, req)
		r1 := rrset.NewCollection(g.N())
		a0 := heapAllocs()
		sp := tr.begin("rrset.generate", top, req)
		rrset.Generate(r1, sampler, int(snap.Theta1), rng.New(ixSeed(e, i)).Split(1), runtime.NumCPU())
		sp.end()
		m["rrset.allocs_per_set"] += float64(heapAllocs()-a0) / float64(snap.Theta1) / serveInteractive
		sp = tr.begin("maxcover.greedy", top, req)
		t0 := time.Now()
		greedy := maxcover.NewScratch().Greedy(r1, serveK)
		gms := ms(time.Since(t0))
		sp.end()
		sp = tr.begin("bound.greedy_with_bounds", top, req)
		t0 = time.Now()
		sel := maxcover.NewScratch().GreedyWithBounds(r1, serveK)
		bms := ms(time.Since(t0))
		sp.end()
		top.end()
		out.check(equalSeeds(greedy.Seeds, snap.Seeds) && equalSeeds(sel.Seeds, snap.Seeds),
			"replayed selection on %s differs from the daemon's snapshot", ixID(i))
		greedyMs += gms
		boundsMs += bms - gms
	}
	m["maxcover.greedy_ms"] = greedyMs / serveInteractive
	m["maxcover.bounds_ms"] = boundsMs / serveInteractive
	self := tr.report(tr.origin, time.Now()).SelfMs
	for _, l := range traceLayers {
		m["trace.self_ms."+l] = self[l] / ops
	}
	for _, l := range []string{"harness", "rrset", "maxcover", "bound"} {
		m["trace.self_ms."+l] = self[l] / serveInteractive
	}
	if err := tr.write(e.tracePath("serve")); err != nil {
		return nil, err
	}
	out.metrics = m
	return out, nil
}

// daemonLayerMetrics fills the per-layer metrics the daemon's own counters
// and timers give, as deltas between two scrapes over ops operations and
// attempts requests.
func daemonLayerMetrics(m map[string]float64, a, b obs.Snapshot, ops, attempts float64) {
	_, genMs := timerDelta(a, b, "rrset_generate_seconds")
	_, idxMs := timerDelta(a, b, "rrset_index_build_seconds")
	m["rrset.sample_ms"] = (genMs - idxMs) / ops
	m["rrset.index_ms"] = idxMs / ops
	m["rrset.edges_examined_per_op"] = float64(counterDelta(a, b, "rrset_edges_examined_total")) / ops
	for _, ep := range handlerEndpoints {
		m["server.handler_ms."+ep.name] = timerMeanMs(a, b, "server_"+ep.timer+"_seconds")
	}
	m["server.admission_wait_ms"] = timerMeanMs(a, b, "server_admission_wait_seconds")
	m["server.rejected_frac"] = float64(counterDelta(a, b, "server_admission_rejected_total")) / attempts
	m["server.checkpoint_ms"] = timerMeanMs(a, b, "server_checkpoint_seconds")
	if w := counterDelta(a, b, "server_checkpoint_writes_total"); w > 0 {
		m["server.checkpoint_bytes"] = float64(counterDelta(a, b, "server_checkpoint_bytes_total")) / float64(w)
	}
	m["graph.mutation_ms"] = timerMeanMs(a, b, "server_graph_mutation_seconds")
	m["rrset.repair_ms"] = timerMeanMs(a, b, "rrset_repair_seconds")
	m["rrset.invalidated_sets"] = float64(counterDelta(a, b, "rrset_invalidated_total"))
	regen := counterDelta(a, b, "rrset_regenerated_total")
	m["rrset.regenerated_sets"] = float64(regen)
	if regen > 0 {
		m["rrset.repair_unchanged_frac"] = float64(counterDelta(a, b, "rrset_repair_unchanged_total")) / float64(regen)
	}
}

// clientLayerMetrics fills server.<endpoint>_ms with the client-side mean
// time of each endpoint's requests (client, by endpoint name), and
// server.transport_ms with the client mean minus the daemon's handler mean
// over the same endpoints: time on the wire, in the HTTP stacks and in the
// client. a and b are the daemon's metrics before and after the requests.
func clientLayerMetrics(m map[string]float64, client map[string][]float64, a, b obs.Snapshot) {
	var clientSum float64
	var clientN int
	timers := make(map[string]bool)
	for name, xs := range client {
		m["server."+name+"_ms"] = mean(xs)
		for _, x := range xs {
			clientSum += x
		}
		clientN += len(xs)
		timers[handlerTimer(name)] = true
	}
	var handlerSum float64
	var handlerN int64
	for t := range timers {
		n, sum := timerDelta(a, b, "server_"+t+"_seconds")
		handlerSum += sum
		handlerN += n
	}
	if clientN > 0 && handlerN > 0 {
		m["server.transport_ms"] = clientSum/float64(clientN) - handlerSum/float64(handlerN)
	}
}

// handlerTimer names the daemon timer that measures an endpoint's handler.
func handlerTimer(endpoint string) string {
	if endpoint == "peek" {
		return "snapshot" // peeks are served by the snapshot handler
	}
	for _, ep := range handlerEndpoints {
		if ep.name == endpoint {
			return ep.timer
		}
	}
	return endpoint
}
