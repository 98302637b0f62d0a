package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"noctest"
	"noctest/internal/core"
	"noctest/internal/report"
)

// gridCell is one bar of the paper's Figure 1: a system, how many of its
// processors are reused, and the power ceiling (0 = none).
type gridCell struct {
	label string
	sys   *noctest.System
	opts  noctest.Options
	// canonical names the benchmark when the cell is the repository's
	// pinned configuration: leon, every processor reused, 50% ceiling.
	canonical string
}

// canonicalMakespans are the pinned seed-1 makespans of the canonical
// cells.
var canonicalMakespans = map[string]int{"d695": 118980, "p22810": 373924, "p93791": 506455}

// setupProbes is how many fresh processes time the paper-grid set-up;
// setup_s is their median.
const setupProbes = 15

// families are the portfolio's strategy families, in report order.
var families = []string{"list", "restart", "anneal"}

func family(s noctest.Scheduler) string {
	switch s.(type) {
	case noctest.ListScheduler:
		return "list"
	case noctest.RandomRestartScheduler:
		return "restart"
	case noctest.AnnealingScheduler:
		return "anneal"
	}
	return "other"
}

// gridSetup loads and builds the six Figure 1 systems, lists the 56
// cells and warms up on the canonical cells: everything that happens
// before the first timed call.
func gridSetup(ctx context.Context, pf noctest.Portfolio) ([]gridCell, error) {
	systems := map[[2]string]*noctest.System{}
	var cells []gridCell
	for _, fc := range figureCells() {
		key := [2]string{fc.bench, fc.cpu}
		sys := systems[key]
		if sys == nil {
			bench, err := noctest.LoadBenchmark(fc.bench)
			if err != nil {
				return nil, err
			}
			profile := noctest.Leon()
			if fc.cpu == "plasma" {
				profile = noctest.Plasma()
			}
			if sys, err = noctest.BuildSystem(bench, noctest.BuildConfig{Processors: fc.procs, Profile: profile}); err != nil {
				return nil, err
			}
			systems[key] = sys
		}
		c := gridCell{
			label: fmt.Sprintf("%s/%s/reuse=%d/power=%g", fc.bench, fc.cpu, fc.reuse, fc.power),
			sys:   sys,
			opts: noctest.Options{
				DisableReuse:        fc.reuse == 0,
				MaxReusedProcessors: fc.reuse,
				PowerLimitFraction:  fc.power,
				BISTPatternFactor:   report.PaperBISTFactor,
			},
		}
		if fc.cpu == "leon" && fc.reuse == fc.procs && fc.power == report.PaperPowerFraction {
			c.canonical = fc.bench
		}
		cells = append(cells, c)
	}
	for _, c := range cells {
		if c.canonical == "" {
			continue
		}
		m, err := noctest.Compile(c.sys, c.opts)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.label, err)
		}
		if _, err := pf.ScheduleModel(ctx, m); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.label, err)
		}
	}
	return cells, nil
}

// gridPortfolio is the race every cell runs: the default portfolio at
// the library's default worker count.
func gridPortfolio(seed int64) noctest.Portfolio {
	return noctest.Portfolio{Schedulers: noctest.DefaultPortfolio(seed)}
}

// gridSetupProbe times one set-up from the first library call in this
// process.
func gridSetupProbe(ctx context.Context, seed int64) (time.Duration, error) {
	start := time.Now()
	_, err := gridSetup(ctx, gridPortfolio(seed))
	return time.Since(start), err
}

// probeSetups times the set-up in fresh copies of this program, so each
// sample pays the process's first-call costs as a user's would, and
// returns each sample at the reference speed (bursts of the meter's units
// right before and after it rate the host) and as measured. The copies
// run on one CPU: with two, the warm-up race's hand-offs between workers
// spread fresh-process samples by about ±20% around their median, while
// with one most samples stay within about ±7%, and the set-up's work is
// the same.
func probeSetups(ctx context.Context, seed int64, sm *speedMeter) (norm, raw []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < setupProbes; i++ {
		var v float64
		_, slow, err := sm.around(func() error {
			cmd := exec.CommandContext(ctx, self, "--setup-probe", "--seed", strconv.FormatInt(seed, 10))
			cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("setup probe: %v: %s", err, stderr.String())
			}
			if v, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64); err != nil {
				return fmt.Errorf("setup probe printed %q: %w", out, err)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		norm, raw = append(norm, v/slow), append(raw, v)
	}
	return norm, raw, nil
}

// cellRun is one timed Compile + ScheduleModel call.
type cellRun struct {
	start, compiled, end time.Time
	makespan             int
	stats                core.SearchStats
	results              []noctest.VariantResult
	plan                 *noctest.Plan // kept for the first pass only
}

func (r cellRun) latency() time.Duration { return r.end.Sub(r.start) }

// windowPasses is how many whole passes make one timing window: two, so
// a window's p90 has ten plans beyond it.
const windowPasses = 2

// gridPasses runs whole windows of passes over the cells until d has
// elapsed, at least one, so every run holds each cell equally often. The
// meter ticks between cells, and rss takes this process's peak over
// each window.
func gridPasses(ctx context.Context, cells []gridCell, pf noctest.Portfolio, d time.Duration, sm *speedMeter, rss *windowRSS) ([][]cellRun, error) {
	start := time.Now()
	var passes [][]cellRun
	if err := rss.start(); err != nil {
		return nil, err
	}
	for len(passes)%windowPasses != 0 || len(passes) == 0 || time.Since(start) < d {
		pass := make([]cellRun, len(cells))
		for i, c := range cells {
			t0 := time.Now()
			m, err := noctest.Compile(c.sys, c.opts)
			if err != nil {
				return nil, fmt.Errorf("%s: compile: %w", c.label, err)
			}
			t1 := time.Now()
			res, err := pf.ScheduleModel(ctx, m)
			t2 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.label, err)
			}
			pass[i] = cellRun{start: t0, compiled: t1, end: t2, makespan: res.Makespan(), stats: m.SearchStats(), results: res.Results}
			if len(passes) == 0 {
				pass[i].plan = res.Plan
			}
			sm.tick()
		}
		passes = append(passes, pass)
		if len(passes)%windowPasses == 0 {
			if err := rss.next(); err != nil {
				return nil, err
			}
		}
	}
	return passes, nil
}

// checkPasses guards determinism: every pass must reproduce the first
// pass's makespan and kernel order count in every cell.
func checkPasses(cells []gridCell, ref []cellRun, passes [][]cellRun) error {
	for p, pass := range passes {
		for i, r := range pass {
			if r.makespan != ref[i].makespan || r.stats.Orders != ref[i].stats.Orders {
				return fmt.Errorf("%s: pass %d gave makespan %d after %d orders, the first pass %d after %d",
					cells[i].label, p, r.makespan, r.stats.Orders, ref[i].makespan, ref[i].stats.Orders)
			}
		}
	}
	return nil
}

// gridQuality checks each cell's first-pass plan — valid, its makespan
// the race's, not below the cell's lower bound, and the pinned value on
// the canonical cells at seed 1 — and returns Σ makespan and Σ bound.
// With a tracer it records the bound, validate and encode spans, and
// returns the encoded plan sizes.
func gridQuality(cells []gridCell, first []cellRun, seed int64, tr *tracer) (sumMs, sumLB float64, jsonBytes []float64, err error) {
	for i, c := range cells {
		r := first[i]
		m, err := noctest.Compile(c.sys, c.opts)
		if err != nil {
			return 0, 0, nil, err
		}
		t0 := time.Now()
		lb := m.LowerBound().Cycles()
		t1 := time.Now()
		verr := r.plan.Validate()
		t2 := time.Now()
		var buf bytes.Buffer
		werr := r.plan.WriteJSON(&buf)
		t3 := time.Now()
		tr.add("core.bound", t0, t1, -1, i)
		tr.add("plan.validate", t1, t2, -1, i)
		tr.add("plan.encode", t2, t3, -1, i)
		jsonBytes = append(jsonBytes, float64(buf.Len()))
		switch {
		case verr != nil:
			return 0, 0, nil, fmt.Errorf("%s: invalid plan: %w", c.label, verr)
		case werr != nil:
			return 0, 0, nil, fmt.Errorf("%s: encoding the plan: %w", c.label, werr)
		case r.plan.Makespan() != r.makespan:
			return 0, 0, nil, fmt.Errorf("%s: plan makespan %d, race reported %d", c.label, r.plan.Makespan(), r.makespan)
		case r.makespan < lb:
			return 0, 0, nil, fmt.Errorf("%s: makespan %d below the lower bound %d", c.label, r.makespan, lb)
		case seed == 1 && c.canonical != "" && r.makespan != canonicalMakespans[c.canonical]:
			return 0, 0, nil, fmt.Errorf("%s: seed-1 makespan %d, pinned %d", c.label, r.makespan, canonicalMakespans[c.canonical])
		}
		sumMs += float64(r.makespan)
		sumLB += float64(lb)
	}
	return sumMs, sumLB, jsonBytes, nil
}

// plans lists every pass's calls in order; a call's slot is its cell.
func plans(passes [][]cellRun) []timed {
	var out []timed
	for _, pass := range passes {
		for i, r := range pass {
			out = append(out, timed{start: r.start, end: r.end, slot: i})
		}
	}
	return out
}

func runGrid(ctx context.Context, cfg config) (*outcome, error) {
	sm, err := newSpeedMeter()
	if err != nil {
		return nil, err
	}
	setups, rawSetups, err := probeSetups(ctx, cfg.seed, sm)
	if err != nil {
		return nil, err
	}
	pf := gridPortfolio(cfg.seed)
	cells, err := gridSetup(ctx, pf)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		start := time.Now()
		rss := &windowRSS{pid: "self"}
		passes, err := gridPasses(ctx, cells, pf, cfg.seconds, sm, rss)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		if err := checkPasses(cells, passes[0], passes); err != nil {
			return nil, err
		}
		sumMs, sumLB, _, err := gridQuality(cells, passes[0], cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		iv := plans(passes)
		m, raw, err := timingStats(iv, windowPasses*len(cells), sm)
		if err != nil {
			return nil, err
		}
		m["makespan_cycles"] = sumMs
		m["lb_gap"] = sumMs / sumLB
		m["setup_s"] = median(setups)
		m["peak_rss_mb"] = median(rss.peaks)
		fmt.Fprintf(cfg.report, "paper-grid seed %d: %d passes x %d cells = %d plans in %.2f s, one in-process caller, %d portfolio worker(s)\n",
			cfg.seed, len(passes), len(cells), len(iv), wall.Seconds(), runtime.GOMAXPROCS(0))
		fmt.Fprintf(cfg.report, "timings: each cell's median over %d passes, at the reference speed\n", len(passes))
		printRaw(cfg.report, raw)
		fmt.Fprintf(cfg.report, "setup_s samples at the reference speed %.4f\nsetup_s samples as measured %.4f\nerror_rate 0 (0 of %d)\n", setups, rawSetups, len(iv))
		return &outcome{attempted: len(iv), metrics: m}, nil
	}

	// Traced run: the spans are built after the timed phase from the
	// timestamps every pass takes, so tracing adds nothing to it.
	mem := memWatch()
	passes, err := gridPasses(ctx, cells, pf, cfg.seconds, sm, &windowRSS{pid: "self"})
	if err != nil {
		return nil, err
	}
	alloc := mem()
	ref := passes[0]
	if err := checkPasses(cells, ref, passes); err != nil {
		return nil, err
	}
	tr := newTracer()
	schedsIn := pf.Schedulers
	workers := min(runtime.GOMAXPROCS(0), len(schedsIn))
	var strategyTime time.Duration
	var orders uint64
	for p, pass := range passes {
		for i, r := range pass {
			req := p*len(cells) + i
			root := tr.add("plan", r.start, r.end, -1, req)
			tr.add("core.compile", r.start, r.compiled, root, req)
			race := tr.add("core.race", r.compiled, r.end, root, req)
			// The race reports each strategy's duration but not its start:
			// place them as the portfolio's workers take them, in order,
			// each to the first worker free.
			free := make([]time.Time, workers)
			for w := range free {
				free[w] = r.compiled
			}
			for k, vr := range r.results {
				w := 0
				for j := range free {
					if free[j].Before(free[w]) {
						w = j
					}
				}
				end := free[w].Add(vr.Elapsed)
				tr.add("core.race."+family(schedsIn[k]), free[w], end, race, req)
				free[w] = end
				strategyTime += vr.Elapsed
			}
			orders += r.stats.Orders
		}
	}
	_, _, jsonBytes, err := gridQuality(cells, ref, cfg.seed, tr)
	if err != nil {
		return nil, err
	}

	plans := float64(len(passes) * len(cells))
	ly := tr.layers()
	perPlan := func(name string) float64 { return ms(ly[name].total) / plans }
	perCell := func(name string) float64 { return ms(ly[name].total) / float64(len(cells)) }

	var kernel core.SearchStats
	wins := map[string]float64{}
	for i, r := range passes[0] {
		kernel.Add(r.stats)
		won := map[string]bool{}
		for k, vr := range r.results {
			if vr.Err == nil && vr.Makespan == ref[i].makespan {
				won[family(schedsIn[k])] = true
			}
		}
		for f := range won {
			wins[f]++
		}
	}
	m := kernelMetrics(kernel, len(cells))
	m["core.kernel.ns_per_order"] = ratio(float64(strategyTime.Nanoseconds()), float64(orders))
	m["core.compile_ms"] = perPlan("core.compile")
	m["core.race_ms"] = perPlan("core.race")
	for _, f := range families {
		m["core.race."+f+"_ms"] = perPlan("core.race." + f)
		m["core.race.wins."+f] = wins[f]
	}
	m["core.bound_ms"] = perCell("core.bound")
	m["plan.validate_ms"] = perCell("plan.validate")
	m["plan.encode_ms"] = perCell("plan.encode")
	m["plan.json_kb"] = mean(jsonBytes) / 1000
	// Unexplained: plan time no leaf layer covers — outside Compile and
	// every strategy's own time: the race's prologue, hand-offs and waits.
	m["unexplained_share"] = ratio(float64(ly["plan"].self+ly["core.race"].self), float64(ly["plan"].total))
	m["go.alloc_mb_per_plan"] = float64(alloc.allocBytes) / 1e6 / plans
	m["go.gc_per_plan"] = float64(alloc.gcs) / plans
	for _, name := range []string{"itc02.parse_ms", "soc.build_ms", "noctestd.residual_ms.p50", "http.ttfb_ms.p50",
		"noctestd.response_kb", "noctestd.cache.hit_rate", "noctestd.cache.evictions_per_request",
		"noctestd.compiles_per_request", "noctestd.rejected", "noctestd.server_errors"} {
		m[name] = 0 // not on the in-process path
	}

	fmt.Fprintf(cfg.report, "paper-grid seed %d traced: %d passes of %d cells\n", cfg.seed, len(passes), len(cells))
	printLayers(cfg.report, ly)
	if err := tr.write(tracePath(cfg)); err != nil {
		return nil, err
	}
	return &outcome{attempted: int(plans), metrics: m}, nil
}

// kernelMetrics derives the kernel ratios from summed SearchStats over
// plans plans.
func kernelMetrics(s core.SearchStats, plans int) map[string]float64 {
	o := float64(s.Orders)
	return map[string]float64{
		"core.kernel.orders_per_plan":           o / float64(plans),
		"core.kernel.placed_per_order":          ratio(float64(s.Placed), o),
		"core.kernel.replayed_share":            ratio(float64(s.Replayed), float64(s.Placed+s.Replayed)),
		"core.kernel.pruned_rate":               ratio(float64(s.Pruned), o),
		"core.kernel.delta_hit_rate":            ratio(float64(s.DeltaHits), o),
		"core.kernel.delta_adjacent_rate":       ratio(float64(s.DeltaAdjacent), o),
		"core.kernel.fallback_rate.frontier":    ratio(float64(s.FallbackFrontier), o),
		"core.kernel.fallback_rate.reservation": ratio(float64(s.FallbackReservation), o),
		"core.kernel.fallback_rate.overlap":     ratio(float64(s.FallbackOverlap), o),
		"core.kernel.fallback_rate.no_suffix":   ratio(float64(s.FallbackNoSuffix), o),
		"core.kernel.fallback_rate.adjacent":    ratio(float64(s.FallbackAdjacent), o),
	}
}
