// Command perfbench is the repository benchmark. It generates seeded
// inputs, runs one named workload against the probgraph packages from a
// single process, checks the answers, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer ledger) followed by one JSON line:
//
//	go run . -workload mine-kron -seed 1 -seconds 20 -trace 0
//
// Workloads: mine-kron, serve-hot, serve-cold, ingest-churn. See
// README.md for what each measures and how the layer metrics map onto
// the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"mine-kron":    runMine,
	"serve-hot":    runServeHot,
	"serve-cold":   runServeCold,
	"ingest-churn": runIngest,
}

// env is what every workload runner receives.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	procs   int    // worker, client-goroutine and connection budget
	dir     string // scratch directory for generated artifacts
}

// outcome collects one run's results.
type outcome struct {
	e2e       map[string]float64 // end-to-end metric → value
	layer     map[string]float64 // per-layer metric → value (traced runs)
	attempted int64
	failed    int64
	problems  []string // failed correctness checks
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one verified answer; a false ok counts it as failed.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: mine-kron, serve-hot, serve-cold, ingest-churn")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: print the per-layer ledger instead of the end-to-end metrics")
		dir      = flag.String("dir", ".bench_build/perfbench-data", "scratch directory for generated artifacts")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp(mustMkdir(*dir), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, procs: runtime.GOMAXPROCS(0), dir: scratch}
	start := time.Now()
	out, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.RemoveAll(scratch)
		os.Exit(1)
	}
	fmt.Printf("workload %s  seed %d  procs %d  wall %.1fs\n", *workload, *seed, e.procs, time.Since(start).Seconds())
	res := resultJSON{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	if e.trace {
		printLedger(*workload, out)
		for _, l := range ledger {
			res.Metrics[l.name] = metricJSON{Value: out.layer[l.name], Unit: l.unit}
		}
	} else {
		printE2E(out)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricJSON{Value: out.e2e[m.name], Unit: m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}

// e2eDef is one end-to-end metric every workload reports.
type e2eDef struct{ name, unit, meaning string }

// endToEnd lists the end-to-end metrics in print order. Every workload
// reports every one; what the "operation" is differs per workload and
// is spelled out in README.md.
var endToEnd = []e2eDef{
	{"setup_s", "s", "inputs handed over → first answer (median of repeated set-ups)"},
	{"heap_mb", "MiB", "Go heap in use after set-up, minus the benchmark's own inputs"},
	{"p50_ms", "ms", "median latency of the workload's operation, from its due time"},
	{"p90_ms", "ms", "90th percentile latency of the workload's operation"},
	{"rate_per_s", "1/s", "capacity: TC-BF edges/s, sustained q/s, or ingested edges/s"},
	{"rel_err", "ratio", "sketch answers against the benchmark's exact reference"},
}

func printE2E(out *outcome) {
	for _, m := range endToEnd {
		fmt.Printf("  %-12s %14.6g %-6s %s\n", m.name, out.e2e[m.name], m.unit, m.meaning)
	}
}

func printLedger(workload string, out *outcome) {
	fmt.Printf("per-layer ledger (%s); '→' names the end-to-end metric and workload each layer should move\n", workload)
	for _, l := range ledger {
		v := fmt.Sprintf("%14.6g", out.layer[l.name])
		if _, ok := out.layer[l.name]; !ok {
			v = fmt.Sprintf("%14s", "n/a")
		}
		fmt.Printf("  %-28s %s %-6s → %s\n", l.name, v, l.unit, l.moves)
	}
}
