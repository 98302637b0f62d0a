// Command perfbench is the benchmark of the noctest planner and its
// noctestd service. It runs one named workload at a given seed, checks
// every plan it receives, and prints each metric by name and unit. The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Workloads (see README.md for why each was chosen):
//
//   - paper-grid: the paper's Figure 1 grid, 56 cells, in-process through
//     the public noctest facade: Compile, then the default portfolio race
//     at the library's default worker count.
//   - serve-cold: the real noctestd binary at its defaults over loopback
//     HTTP with one closed-loop caller; every request is a point not sent
//     before, so every request misses the model cache.
//   - serve-warm: the same server and caller over a working set compiled
//     during set-up, so every timed request is a cache hit.
//
// Timings are stated at a reference speed: a speed meter runs a fixed
// calibration unit between the timed plans, and each window's figures
// are divided by the host's slowness over it (calib.go). The figures as
// measured are printed beside them.
//
// With --trace 0 a run measures the end-to-end metrics. With --trace 1
// it prints the per-layer metrics instead: their spans are built after
// the timed phase from the timestamps every run takes, and written to
// <out>/traces.
// Any failed check or regime guard exits non-zero without a result.
//
// Usage (run.sh builds both binaries from source first):
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metricSpec names one printed metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints; BENCHMARK.json
// declares the same set with its bounds.
var endToEnd = []metricSpec{
	{"latency_ms.p50", "ms"},
	{"latency_ms.p90", "ms"},
	{"throughput", "plans/s"},
	{"makespan_cycles", "cycles"},
	{"lb_gap", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints. A layer that a workload
// does not run on its request path reads 0 there.
var perLayer = []metricSpec{
	{"core.compile_ms", "ms"},
	{"core.bound_ms", "ms"},
	{"core.race_ms", "ms"},
	{"core.race.list_ms", "ms"},
	{"core.race.restart_ms", "ms"},
	{"core.race.anneal_ms", "ms"},
	{"core.race.wins.list", "count"},
	{"core.race.wins.restart", "count"},
	{"core.race.wins.anneal", "count"},
	{"core.kernel.orders_per_plan", "count"},
	{"core.kernel.placed_per_order", "count"},
	{"core.kernel.replayed_share", "ratio"},
	{"core.kernel.pruned_rate", "ratio"},
	{"core.kernel.delta_hit_rate", "ratio"},
	{"core.kernel.delta_adjacent_rate", "ratio"},
	{"core.kernel.fallback_rate.frontier", "ratio"},
	{"core.kernel.fallback_rate.reservation", "ratio"},
	{"core.kernel.fallback_rate.overlap", "ratio"},
	{"core.kernel.fallback_rate.no_suffix", "ratio"},
	{"core.kernel.fallback_rate.adjacent", "ratio"},
	{"core.kernel.ns_per_order", "ns"},
	{"itc02.parse_ms", "ms"},
	{"soc.build_ms", "ms"},
	{"plan.validate_ms", "ms"},
	{"plan.encode_ms", "ms"},
	{"plan.json_kb", "KB"},
	{"noctestd.residual_ms.p50", "ms"},
	{"http.ttfb_ms.p50", "ms"},
	{"noctestd.response_kb", "KB"},
	{"noctestd.cache.hit_rate", "ratio"},
	{"noctestd.cache.evictions_per_request", "count"},
	{"noctestd.compiles_per_request", "count"},
	{"noctestd.rejected", "count"},
	{"noctestd.server_errors", "count"},
	{"unexplained_share", "ratio"},
	{"go.alloc_mb_per_plan", "MB"},
	{"go.gc_per_plan", "count"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	noctestd string
	out      string
	// report receives the human-readable lines printed before the result.
	report io.Writer
}

// outcome is what a workload hands back: the requests it timed and the
// metrics of the run's mode, keyed by name.
type outcome struct {
	attempted int
	metrics   map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"paper-grid": runGrid,
	"serve-cold": func(ctx context.Context, cfg config) (*outcome, error) { return runServe(ctx, cfg, true) },
	"serve-warm": func(ctx context.Context, cfg config) (*outcome, error) { return runServe(ctx, cfg, false) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg     config
		seconds float64
		trace   int
		probe   bool
	)
	fs.StringVar(&cfg.workload, "workload", "", "paper-grid, serve-cold or serve-warm")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced measurement and prints the per-layer metrics")
	fs.StringVar(&cfg.noctestd, "noctestd", "", "noctestd binary the serve workloads start")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory the traced run writes its spans under")
	fs.BoolVar(&probe, "setup-probe", false, "time one paper-grid set-up in this fresh process and print it (used by paper-grid itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if probe {
		d, err := gridSetupProbe(ctx, cfg.seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: setup probe: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, d.Seconds())
		return 0
	}
	wl, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q: want paper-grid, serve-cold or serve-warm\n", cfg.workload)
		return 2
	case seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %g\n", seconds)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.report = stdout

	out, err := wl(ctx, cfg)
	if err == nil {
		err = printResult(stdout, out, cfg.trace)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		return 1
	}
	return 0
}

// printResult prints every metric of the run's mode as a line, then the
// result object as the last line.
func printResult(w io.Writer, out *outcome, traced bool) error {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	if len(out.metrics) != len(specs) {
		return fmt.Errorf("internal: workload reported %d metrics, want %d", len(out.metrics), len(specs))
	}
	res := result{Correct: true, Attempted: out.attempted, Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok {
			return fmt.Errorf("internal: workload did not report %s", s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(w, "%-40s %16.6f %s\n", s.name, v, s.unit)
	}
	if res.Attempted < 1 {
		return errors.New("no request was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
