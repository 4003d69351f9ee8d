// Command perfbench is the repository benchmark: seeded workloads that
// drive the mcost facade, the HTTP serving layer and the scatter-gather
// router from one process, check every answer against a brute-force
// oracle, and print named end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separate traced run).
//
//	bash perfbench/run.sh --workload lib-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"ops_per_s": {"value": ..., "unit": "1/s"}, ...}}
//
// The line before it stamps the run with the machine, toolchain,
// source revision and seed. A wrong answer sets "correct" to false and
// exits with status 1. BENCHMARK.json lists the workloads and metrics;
// layers.json maps each per-layer metric to the end-to-end metric it
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Every workload indexes the paper's clustered dataset (10 Gaussian
// clusters, sigma 0.1, L-infinity) at the binaries' default size.
const (
	datasetN   = 10_000
	datasetDim = 8
	nnK        = 10
)

// unit of every metric the benchmark can print.
var units = map[string]string{
	"setup_s":      "s",
	"ops_per_s":    "1/s",
	"range_p50_us": "us",
	"nn_p50_us":    "us",
	"ok_frac":      "ratio",
	"mem_mb":       "MB",

	"metric.ns_per_dist":             "ns",
	"mtree.range_us":                 "us",
	"mtree.nn_us":                    "us",
	"mtree.range_nodes":              "count",
	"mtree.range_dists":              "count",
	"mtree.nn_nodes":                 "count",
	"mtree.nn_dists":                 "count",
	"mtree.allocs_per_query":         "count",
	"mtree.insert_us":                "us",
	"mtree.delete_us":                "us",
	"core.price_range_us":            "us",
	"core.price_nn_us":               "us",
	"core.node_ratio":                "ratio",
	"core.dist_ratio":                "ratio",
	"advisor.plan_us":                "us",
	"advisor.scan_frac":              "ratio",
	"mcost.build_s":                  "s",
	"mcost.refit_s":                  "s",
	"rescache.hit_rate":              "ratio",
	"rescache.probe_dists_per_query": "count",
	"server.decode_us":               "us",
	"server.range_handler_us":        "us",
	"server.nn_handler_us":           "us",
	"server.write_handler_us":        "us",
	"server.self_us":                 "us",
	"server.write_wait_us":           "us",
	"server.queue_us":                "us",
	"server.batch_size":              "count",
	"server.shed_frac":               "ratio",
	"server.partial_frac":            "ratio",
	"router.range_handler_us":        "us",
	"router.nn_handler_us":           "us",
	"router.self_us":                 "us",
	"router.shard_calls_per_query":   "count",
	"router.useful_shard_frac":       "ratio",
	"router.nn_nodes":                "count",
	"router.nn_dists":                "count",
	"shard.nn_nodes":                 "count",
	"router.boot_s":                  "s",
	"client.rtt_us":                  "us",
	"client.lag_ms":                  "ms",
	"client.write_p50_us":            "us",
	"client.write_p99_us":            "us",
	"client.range_p99_us":            "us",
	"client.nn_p99_us":               "us",
	"trace.overhead_frac":            "ratio",
}

// endToEnd lists the metrics an untraced run prints; every workload
// reports all of them.
var endToEnd = []string{
	"setup_s", "ops_per_s",
	"range_p50_us", "nn_p50_us",
	"ok_frac", "mem_mb",
}

// perLayer lists the metrics a traced run prints. A layer a workload
// never calls into reports 0.
func perLayer() []string {
	isE2E := map[string]bool{}
	for _, n := range endToEnd {
		isE2E[n] = true
	}
	var out []string
	for n := range units {
		if !isE2E[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// report is what a workload hands back: counts of attempted, failed and
// wrong operations, and metric values by name.
type report struct {
	attempted int64
	failed    int64 // errors, 5xx, 429, 422, partial or degraded answers, wrong answers
	wrong     int64
	metrics   map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

type workloadFunc func(cfg runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"lib-read":    runLibRead,
	"serve-churn": runServeChurn,
	"cluster-nn":  runClusterNN,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: lib-read | serve-churn | cluster-nn")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (lib-read | serve-churn | cluster-nn)", *name))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}

	stamp, err := json.Marshal(map[string]interface{}{"stamp": machineStamp(*name, cfg)})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(stamp))

	start := time.Now()
	rep, err := run(cfg)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *name, err))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d finished in %.1fs\n", *name, cfg.seed, time.Since(start).Seconds())

	names := endToEnd
	if cfg.trace {
		names = perLayer()
	}
	res := result{
		Correct:   rep.wrong == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, n := range names {
		v, ok := rep.metrics[n]
		if !ok && !cfg.trace {
			fail(fmt.Errorf("%s did not measure %s", *name, n))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail(fmt.Errorf("%s measured a non-finite %s", *name, n))
		}
		res.Metrics[n] = metricValue{Value: v, Unit: units[n]}
	}
	if res.Attempted < 1 {
		fail(fmt.Errorf("%s attempted no operations", *name))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers\n", rep.wrong)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
