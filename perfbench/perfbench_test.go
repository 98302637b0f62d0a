package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// paper-grid times its set-up in fresh copies of itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// buildNoctestd builds the server from the repository this benchmark
// sits in.
func buildNoctestd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "noctestd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/noctestd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building noctestd: %v\n%s", err, out)
	}
	return bin
}

// runOnce runs one workload and returns its parsed result, failing the
// test on a non-zero exit or a malformed result line.
func runOnce(t *testing.T, bin, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "1", "--seconds", "2", "--trace", trace, "--noctestd", bin, "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s --trace %s exited %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q is not a result: %v", lines[len(lines)-1], err)
	}
	specs := endToEnd
	if trace == "1" {
		specs = perLayer
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(specs) {
		t.Fatalf("result %+v", res)
	}
	for _, s := range specs {
		if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
			t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
		}
	}
	return res
}

// TestSmoke runs a seconds-long variant of every workload, untraced and
// traced, through every check and regime guard the benchmark applies,
// and checks that the exact quality figures and kernel counts repeat at
// one seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts noctestd and runs each workload for seconds")
	}
	bin := buildNoctestd(t)
	for _, wl := range []string{"paper-grid", "serve-cold", "serve-warm"} {
		t.Run(wl, func(t *testing.T) {
			a, b := runOnce(t, bin, wl, "0"), runOnce(t, bin, wl, "0")
			for _, name := range []string{"makespan_cycles", "lb_gap"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs between runs of one seed: %v vs %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
			traced := runOnce(t, bin, wl, "1")
			if wl == "paper-grid" {
				again := runOnce(t, bin, wl, "1")
				for name, m := range traced.Metrics {
					exact := strings.HasPrefix(name, "core.race.wins.") ||
						(strings.HasPrefix(name, "core.kernel.") && name != "core.kernel.ns_per_order")
					if exact && again.Metrics[name] != m {
						t.Errorf("%s differs between runs of one seed: %v vs %v", name, m.Value, again.Metrics[name].Value)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
}

// TestServePoints checks the serve traffic's design: serve-cold never
// repeats a point, its warm-up included, and every round sends the same
// points up to their order and failed link at every seed; serve-warm's
// working set is the Figure 1 grid and fits the default cache.
func TestServePoints(t *testing.T) {
	withoutLink := func(p point) point { p.linkSeed = 0; return p }
	// key is what noctestd's cache keys on: the upload and the query.
	key := func(p point) string { return p.cell.bench + "?" + p.query() }
	var firstRound map[point]int
	seen := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		ps := newPointSet(seed)
		sent := map[string]bool{}
		for _, p := range ps.coldWarmup() {
			sent[key(p)] = true
		}
		n := ps.coldRound()
		for r := 0; r < 3; r++ {
			round := map[point]int{}
			for i := r * n; i < (r+1)*n; i++ {
				p := ps.cold(i)
				if sent[key(p)] {
					t.Fatalf("seed %d: request %d repeats %s", seed, i, key(p))
				}
				sent[key(p)] = true
				round[withoutLink(p)]++
			}
			if firstRound == nil {
				firstRound = round
			} else if !maps.Equal(round, firstRound) {
				t.Fatalf("seed %d round %d sends other points than seed 1 round 0", seed, r)
			}
		}
		if len(firstRound) != n {
			t.Fatalf("a round holds %d distinct points, want %d", len(firstRound), n)
		}
		for q := range sent {
			if seen[q] {
				t.Fatalf("seed %d sends %s, which another seed sent too", seed, q)
			}
		}
		maps.Copy(seen, sent)
		ws := ps.warmSet()
		if len(ws) != 56 || len(ws) >= 64 {
			t.Fatalf("working set of %d points", len(ws))
		}
		counts := make([]int, len(ws))
		for i := 0; i < 4*len(ws); i++ {
			counts[ps.warm(i)]++
		}
		for k, c := range counts {
			if c != 4 {
				t.Fatalf("seed %d: working-set point %d sent %d times in four rounds", seed, k, c)
			}
		}
	}
}

// TestTimingStatsScales checks that each plan is stated at the reference
// speed using the meter's units run inside its window, and that a slot's
// latency is the median of its plans: three windows of the same forty
// slots, the last two on a host twice as slow and one of them with a
// stalled plan, give the figures of the first once scaled.
func TestTimingStatsScales(t *testing.T) {
	var xs []timed
	sm, err := newSpeedMeter()
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(0, 0)
	for w, slow := range []float64{1, 2, 2} {
		for slot := 0; slot < 40; slot++ {
			d := time.Duration(float64(time.Duration(1+slot%4)*time.Millisecond) * slow)
			if w == 2 && slot == 3 {
				d *= 10
			}
			xs = append(xs, timed{start: at, end: at.Add(d), slot: slot})
			sm.samples = append(sm.samples, calSample{at: at.Add(d + time.Microsecond), d: time.Duration(slow * float64(refUnit))})
			at = at.Add(d + 2*time.Microsecond)
		}
		at = at.Add(time.Second)
	}
	norm, raw, err := timingStats(xs, 40, sm)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"latency_ms.p50": 2, "latency_ms.p90": 4, "throughput": 400} {
		if got := norm[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s at the reference speed: got %v, want %v", name, got, want)
		}
	}
	if raw["slowness"] != 2 || raw["latency_ms.p50"] != 4 {
		t.Errorf("as measured: %v", raw)
	}
	if _, _, err := timingStats(xs, 40, &speedMeter{}); err == nil {
		t.Error("windows without calibration units were rated")
	}
	if _, _, err := timingStats(xs[:20], 20, sm); err == nil {
		t.Error("a p90 with two plans beyond it was reported")
	}
	// A stretch in which the hypervisor withheld a quarter of the CPU
	// time the VM wanted reads 1/(1 - 0.25) slower than its units alone.
	st := &speedMeter{}
	for i := 0; i < minUnits; i++ {
		st.samples = append(st.samples, calSample{at: time.Unix(int64(i), 0), d: refUnit, cpuTicks: cpuTicks{busy: uint64(15 * i), steal: uint64(5 * i)}})
	}
	if slow, steal, err := st.slowness(time.Unix(0, 0), time.Unix(10, 0)); err != nil || steal != 0.25 || math.Abs(slow-4.0/3) > 1e-12 {
		t.Errorf("a quarter stolen: slowness %v, steal share %v, %v", slow, steal, err)
	}
}

// TestGuardsTrip feeds the regime guards counters from the wrong regime.
func TestGuardsTrip(t *testing.T) {
	ph := func(hits, misses, compiles, evictions, rejected uint64) phase {
		var p phase
		p.ex = make([]exchange, 10)
		p.before.Cache.Capacity = 64
		p.before.Cache.Entries = 24
		p.after.Cache.Hits, p.after.Cache.Misses = hits, misses
		p.after.Cache.Compiles, p.after.Cache.Evictions = compiles, evictions
		p.after.Pool.Rejected = rejected
		p.after.Requests.Total, p.after.Requests.OK = 10, 10
		return p
	}
	cases := []struct {
		name string
		ph   phase
		cold bool
		ok   bool
	}{
		{"cold ok", ph(0, 10, 10, 0, 0), true, true},
		{"cold hit", ph(1, 9, 9, 0, 0), true, false},
		{"cold eviction early", ph(0, 10, 10, 1, 0), true, false},
		{"warm ok", ph(10, 0, 0, 0, 0), false, true},
		{"warm compile", ph(9, 1, 1, 0, 0), false, false},
		{"429", ph(10, 0, 0, 0, 1), false, false},
	}
	for _, c := range cases {
		if err := c.ph.guard(c.cold); (err == nil) != c.ok {
			t.Errorf("%s: guard returned %v", c.name, err)
		}
	}
	if _, err := quantile(make([]float64, 100), 0.99); err == nil {
		t.Error("p99 of 100 samples was reported")
	}
	if _, err := quantile(make([]float64, 100), 0.9); err != nil {
		t.Error(err)
	}
}
