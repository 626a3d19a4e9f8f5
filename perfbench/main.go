// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload against the code of the checkout it is
// built from, checks every output, and prints one JSON result as the last
// line of standard output:
//
//	bash perfbench/run.sh --workload opimc --seed 1 --seconds 15 --trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a traced run. README.md describes the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"github.com/reprolab/opim/internal/rng"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a caller of the system sees, reported by every
// workload's untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"rr_sets_per_s", "1/s"},
	{"rr_sets_per_op", "count"},
	{"alpha_mean", "ratio"},
	{"heap_peak_mb", "MB"},
}

// traceLayers are the layers whose span self time the traced run reports.
var traceLayers = []string{"harness", "core", "rrset", "maxcover", "bound", "server", "graph", "learn", "diffusion"}

// perLayer are the single-layer metrics of the traced run. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"rrset.sample_ms", "ms"},
		{"rrset.index_ms", "ms"},
		{"rrset.allocs_per_set", "count"},
		{"rrset.edges_examined_per_op", "count"},
		{"maxcover.greedy_ms", "ms"},
		{"maxcover.bounds_ms", "ms"},
		{"core.rounds_per_op", "count"},
		{"server.status_ms", "ms"},
		{"server.peek_ms", "ms"},
		{"server.snapshot_ms", "ms"},
		{"server.advance_ms", "ms"},
		{"server.rounds_ms", "ms"},
		{"server.observations_ms", "ms"},
		{"server.updates_ms", "ms"},
	}
	for _, ep := range handlerEndpoints {
		defs = append(defs, metricDef{"server.handler_ms." + ep.name, "ms"})
	}
	defs = append(defs,
		metricDef{"server.transport_ms", "ms"},
		metricDef{"server.admission_wait_ms", "ms"},
		metricDef{"server.rejected_frac", "ratio"},
		metricDef{"server.checkpoint_ms", "ms"},
		metricDef{"server.checkpoint_bytes", "bytes"},
		metricDef{"graph.mutation_ms", "ms"},
		metricDef{"graph.derive_ms", "ms"},
		metricDef{"graph.fingerprint_ms", "ms"},
		metricDef{"rrset.repair_ms", "ms"},
		metricDef{"rrset.invalidated_sets", "count"},
		metricDef{"rrset.regenerated_sets", "count"},
		metricDef{"rrset.repair_unchanged_frac", "ratio"},
		metricDef{"learn.realize_ms", "ms"},
		metricDef{"proc.cpu_s_per_op", "s"},
		metricDef{"harness.send_lag_ms", "ms"},
		metricDef{"trace.coverage_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"trace.self_ms." + l, "ms"})
	}
	return defs
}()

// handlerEndpoints maps the per-layer handler metrics to the daemon
// timers (server_<timer>_seconds) that measure them.
var handlerEndpoints = []struct{ name, timer string }{
	{"status", "status"},
	{"snapshot", "snapshot"},
	{"advance", "advance"},
	{"rounds", "rounds"},
	{"observations", "observations"},
	{"updates", "graph_updates"},
}

// exactCounts are metrics that are deterministic for a seed; runs of one
// seed on one build must report them identically.
var exactCounts = []string{
	"rr_sets_per_op",
	"rrset.edges_examined_per_op",
	"core.rounds_per_op",
	"rrset.regenerated_sets",
	"server.checkpoint_bytes",
}

// env is what a workload runs with.
type env struct {
	seed    uint64
	seconds int
	trace   bool
	opimd   string // path of the opimd binary under test
	work    string // working directory inside the checkout
}

// scaled sizes a workload's fixed amount of work to the run length:
// perTenSeconds units of work for a 10-second run.
func (e *env) scaled(perTenSeconds int) int {
	n := perTenSeconds * e.seconds / 10
	if n < 1 {
		n = 1
	}
	return n
}

// tracePath is where a traced run writes its spans.
func (e *env) tracePath(workload string) string {
	return filepath.Join(e.work, "traces", fmt.Sprintf("%s-seed%d.json", workload, e.seed))
}

// inputSeed derives the i-th input seed of the workload's seed stream.
func (e *env) inputSeed(i uint64) uint64 { return rng.New(e.seed).Split(i).Uint64() }

// outcome is what a workload run produced.
type outcome struct {
	problems []string // failed output checks
	tally    tally
	metrics  map[string]float64
	meta     map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), meta: make(map[string]any)}
}

// check records a failed output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// latencies fills the latency metrics from the tally, applying the tail
// rule.
func (o *outcome) latencies() {
	o.metrics["latency_p50_ms"] = o.tally.latencyMs(50)
	p, lat, beyond, ok := o.tally.tail(tailCeiling)
	o.check(ok, "only %d operations: too few for a tail percentile with %d samples beyond it", len(o.tally.lat), minBeyondTail)
	o.metrics["latency_tail_ms"] = lat
	o.meta["latency_tail_percentile"] = p
	o.meta["latency_tail_samples_beyond"] = beyond
	if p, lat, beyond, ok := o.tally.tail(100); ok {
		o.meta["latency_highest_percentile"] = p
		o.meta["latency_highest_ms"] = lat
		o.meta["latency_highest_samples_beyond"] = beyond
	}
	o.meta["latency_samples"] = len(o.tally.lat)
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]func(*env) (*outcome, error){
	"opimc":        runOpimc,
	"serve":        runServe,
	"mutate-learn": runMutateLearn,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: opimc | serve | mutate-learn")
		seed    = flag.Uint64("seed", 1, "workload seed; every input is derived from it")
		seconds = flag.Int("seconds", 10, "run length the workload's fixed amount of work is sized to")
		traceOn = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		opimd   = flag.String("opimd", "", "opimd binary under test")
		work    = flag.String("work", ".bench_build", "working directory for logs, checkpoints and traces")
		commit  = flag.String("commit", "unknown", "commit of the code under test, for the run metadata")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload opimc|serve|mutate-learn, -seconds ≥ 1, -trace 0|1\n")
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *traceOn == 1, opimd: *opimd, work: *work}
	if err := os.MkdirAll(filepath.Join(e.work, "traces"), 0o755); err != nil {
		fatal(err)
	}
	gomaxprocs := runtime.GOMAXPROCS(0) // the program under test's, in process or in opimd
	out, err := run(e)
	if err != nil {
		fatal(err)
	}

	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	if err := checkDeterminism(e, *name, out); err != nil {
		fatal(err)
	}
	meta := map[string]any{
		"workload":                  *name,
		"seed":                      *seed,
		"seconds":                   *seconds,
		"trace":                     e.trace,
		"nproc":                     runtime.NumCPU(),
		"gomaxprocs":                gomaxprocs,
		"load_generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"go":                        runtime.Version(),
		"cpu":                       cpuModel(),
		"commit":                    *commit,
		"problems":                  out.problems,
	}
	for k, v := range out.meta {
		meta[k] = v
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   len(out.problems) == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   make(map[string]map[string]any, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fatal(fmt.Errorf("workload %s did not produce a finite %s (%v)", *name, d.name, v))
		}
		res.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	printTable(os.Stderr, *name, defs, out.metrics)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fatal(err)
	}
	if err := enc.Encode(res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printTable(w io.Writer, name string, defs []metricDef, m map[string]float64) {
	fmt.Fprintf(w, "perfbench %s:\n", name)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
}

// checkDeterminism compares the run's exact counts with those an earlier
// run of the same workload, seed, run length and binaries recorded, and
// records its own. A difference is a determinism failure of the program, reported as
// a failed check rather than as noise.
func checkDeterminism(e *env, name string, out *outcome) error {
	key, err := buildKey(e.opimd)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.work, "determinism")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%ds-%s.json", name, e.seed, e.seconds, key))
	seen := make(map[string]float64)
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &seen); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	var names []string
	for _, c := range exactCounts {
		v, ok := out.metrics[c]
		if !ok {
			continue
		}
		if prev, ok := seen[c]; ok {
			out.check(prev == v, "determinism failure: %s = %v, an earlier run of seed %d on this build gave %v", c, v, e.seed, prev)
		}
		seen[c] = v
		names = append(names, c)
	}
	sort.Strings(names)
	out.meta["exact_counts"] = names
	b, err := json.Marshal(seen)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// buildKey identifies the binaries under test, so exact counts are only
// compared between runs of the same code.
func buildKey(paths ...string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range append(paths, self) {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
