// Command perfbench measures the molq tree it is built from, end to end
// and layer by layer. Each run has two phases:
//
//   - planner: in-process library sessions (cold, warm, reweighted and
//     weighted solves through query.SolveContext) over fresh clustered
//     regions, so the diagram cache keeps evicting;
//   - serving: a closed-loop read/write mix through molq/client against
//     molqd processes built from the same tree — one standalone node
//     (workload node-rw) or a router with two replicas (cluster-rw).
//
// Every answer is checked against the brute-force oracle (package oracle).
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; with -trace 1 the metrics
// are the per-layer figures instead of the end-to-end ones. -spread k runs
// the workload k times (one process per seed) and prints each metric's
// median and interquartile range. See README.md.
//
// Run it through run.sh, which builds molqd and this command first:
//
//	bash perfbench/run.sh --workload node-rw --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// workloads maps a workload name to whether it serves from a cluster (a
// router and clusterReplicas replicas) rather than one standalone node.
var workloads = map[string]bool{
	"node-rw":    false,
	"cluster-rw": true,
}

const clusterReplicas = 2

// Closed-loop client goroutines per phase. The planner runs from one: two
// in-process solvers contend for the box's two CPUs, and the host's varying
// CPU steal then doubled the run-to-run spread of the planner latencies.
// The serving phase runs from two, which keeps the server busy between
// requests: with one, every request waits for an idle CPU to wake up.
const (
	plannerGoroutines = 1
	serveGoroutines   = 2
)

type runConfig struct {
	workload string
	cluster  bool
	seed     int64
	seconds  float64
	trace    bool
	molqd    string // molqd binary built from the tree under test
	workdir  string // server logs
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric. A figure without samples (NaN) is reported as 0
// with a warning: JSON has no NaN.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) {
		logf("warning: %s has no samples", name)
		v = 0
	}
	m[name] = metric{v, unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "node-rw", "serving tier: node-rw or cluster-rw")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 40, "measured seconds, split between the planner (60%) and serving (40%) phases")
		trace   = flag.Int("trace", 0, "1: print per-layer metrics instead of end-to-end ones")
		molqd   = flag.String("molqd", "", "molqd binary to serve from")
		workdir = flag.String("workdir", ".", "directory for server logs")
		spread  = flag.Int("spread", 0, "run the workload this many times (seeds seed, seed+1, …) and print each metric's median and IQR")
	)
	flag.Parse()
	cluster, ok := workloads[*name]
	if !ok {
		logf("unknown workload %q", *name)
		os.Exit(2)
	}
	if *spread > 0 {
		if err := runSpread(*spread, *seed); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	if *molqd == "" {
		logf("-molqd is required")
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *name,
		cluster:  cluster,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		molqd:    *molqd,
		workdir:  *workdir,
	}
	res, err := run(cfg)
	if err != nil {
		logf("%s: %v", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes the planner phase, then the serving phase, and assembles the
// result line.
func run(cfg runConfig) (*result, error) {
	ctx := context.Background()
	// The planner gets the larger share: its cold class needs at least 100
	// samples per run for a p90.
	total := time.Duration(cfg.seconds * float64(time.Second))
	plannerDur := total * 6 / 10

	p := runPlanner(ctx, cfg, plannerDur)
	// Return the planner's heap before the serving phase, whose client
	// goroutines run in this process.
	runtime.GC()
	debug.FreeOSMemory()
	s, err := runServe(ctx, cfg, total-plannerDur)
	if err != nil {
		return nil, err
	}

	var all tally
	all.merge(&p.tally)
	all.merge(&s.tally)
	logf("%s seed %d: planner %.1fs, serving %.1fs", cfg.workload, cfg.seed, p.elapsed.Seconds(), s.elapsed.Seconds())
	all.print()

	e2e, layers := metrics{}, metrics{}
	p.endToEnd(e2e)
	s.endToEnd(e2e)
	p.perLayer(layers)
	s.perLayer(layers, cfg.cluster)
	layers.set("query.cost_mismatch_ratio", ratio(float64(costMismatched.Load()), float64(costChecked.Load())), "ratio")
	res := &result{Metrics: e2e}
	if cfg.trace {
		// The end-to-end figures of a traced run carry the tracing
		// overhead; they go to stderr for the overhead comparison.
		line, _ := json.Marshal(e2e)
		logf("traced end-to-end: %s", line)
		res.Metrics = layers
	}
	res.Attempted, res.Failed = all.totals()
	res.Failed += s.checkFails
	// fixed3 operations fail every time, on a seed-independent input, until
	// the three-point solver is fixed (fixed3.go); correct speaks of the
	// other operations.
	res.Correct = res.Failed == all[classFixed3].failed
	return res, nil
}
