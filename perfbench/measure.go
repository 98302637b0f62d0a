package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs. It refuses when
// fewer than ten samples lie beyond it: such a percentile would be one
// of the run's few slowest samples, not a property of the system.
func quantile(xs []float64, q float64) (float64, error) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if len(s)-rank < 10 {
		return 0, fmt.Errorf("p%g needs ten samples beyond it, the run has %d", 100*q, len(s))
	}
	return s[rank-1], nil
}

// timed is one timed plan: when it ran, and the input slot it served —
// a grid cell, a serve-warm working-set point, or a serve-cold point up
// to its failed link. Every window of a run holds each slot equally
// often.
type timed struct {
	start, end time.Time
	slot       int
}

// timingStats turns a run's timed plans, in the order they were sent,
// into its timing figures. The plans are cut into consecutive windows of
// n (a short tail is dropped), and each plan's latency is stated at the
// reference speed using the meter's units run within its window. Each
// slot's latency is then the median over its plans, so a stall that hits
// a few plans of a slot moves nothing. latency_ms.p50 and .p90 are
// quantiles over the slots, and throughput is one caller's plans per
// second at those latencies: the slots over the sum of their latencies.
// raw holds the same figures as measured, and the host's median
// slowness and steal share.
func timingStats(xs []timed, n int, sm *speedMeter) (norm, raw map[string]float64, err error) {
	if len(xs) < n {
		return nil, nil, fmt.Errorf("the run timed %d plans, less than one window of %d", len(xs), n)
	}
	scaled, measured := map[int][]float64{}, map[int][]float64{}
	var slows, steals []float64
	for lo := 0; lo+n <= len(xs); lo += n {
		w := xs[lo : lo+n]
		slow, steal, err := sm.slowness(w[0].start, w[n-1].end)
		if err != nil {
			return nil, nil, err
		}
		slows, steals = append(slows, slow), append(steals, steal)
		for _, x := range w {
			lat := ms(x.end.Sub(x.start))
			scaled[x.slot] = append(scaled[x.slot], lat/slow)
			measured[x.slot] = append(measured[x.slot], lat)
		}
	}
	if norm, err = slotFigures(scaled); err != nil {
		return nil, nil, err
	}
	if raw, err = slotFigures(measured); err != nil {
		return nil, nil, err
	}
	raw["slowness"], raw["steal"] = median(slows), median(steals)
	return norm, raw, nil
}

// slotFigures gives the p50, p90 and throughput of per-slot medians. A
// quantile over slots stands for every plan of the slots beyond it, so
// it needs at least ten plans beyond it, as quantile does.
func slotFigures(bySlot map[int][]float64) (map[string]float64, error) {
	meds := make([]float64, 0, len(bySlot))
	reps, sum := math.MaxInt, 0.0
	for _, xs := range bySlot {
		m := median(xs)
		meds = append(meds, m)
		reps, sum = min(reps, len(xs)), sum+m
	}
	sort.Float64s(meds)
	out := map[string]float64{"throughput": float64(len(meds)) / (sum / 1000)}
	for name, q := range map[string]float64{"latency_ms.p50": 0.5, "latency_ms.p90": 0.9} {
		rank := max(int(math.Ceil(q*float64(len(meds)))), 1)
		if (len(meds)-rank)*reps < 10 {
			return nil, fmt.Errorf("p%g of %d slots with %d plans each has fewer than ten plans beyond it", 100*q, len(meds), reps)
		}
		out[name] = meds[rank-1]
	}
	return out, nil
}

// printRaw prints a run's timings as measured, beside the host's
// slowness they were scaled by.
func printRaw(w io.Writer, raw map[string]float64) {
	fmt.Fprintf(w, "as measured: latency_ms.p50 %.4f, latency_ms.p90 %.4f, throughput %.3f plans/s; host slowness %.4f (median unit time / %v / (1 - steal share %.4f))\n",
		raw["latency_ms.p50"], raw["latency_ms.p90"], raw["throughput"], raw["slowness"], refUnit, raw["steal"])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowRSS collects a process's resident-set high-water mark over each
// timing window: the window's peak, then a reset for the next one. A
// whole run's peak is a maximum over more draws the more windows the
// run holds, so it rose with the host's speed; the median over windows
// of fixed work does not.
type windowRSS struct {
	pid   string // "self" for this process
	peaks []float64
}

// start resets the high-water mark to the current resident set.
func (w *windowRSS) start() error {
	return os.WriteFile(filepath.Join("/proc", w.pid, "clear_refs"), []byte("5"), 0)
}

// next records the peak since the last reset and resets it.
func (w *windowRSS) next() error {
	mb, err := peakRSSMB(w.pid)
	if err != nil {
		return err
	}
	w.peaks = append(w.peaks, mb)
	return w.start()
}

// peakRSSMB reads VmHWM, the resident-set high-water mark of process
// pid ("self" for this one), from /proc, in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1000, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%s/status", pid)
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct {
	allocBytes uint64
	gcs        uint32
}

// memWatch snapshots runtime.MemStats and returns a function giving the
// activity since the snapshot.
func memWatch() func() memDelta {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() memDelta {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return memDelta{allocBytes: after.TotalAlloc - before.TotalAlloc, gcs: after.NumGC - before.NumGC}
	}
}

// span is one timed interval of a traced run. Parent is the index of the
// enclosing span, -1 for a root; Req identifies the plan it belongs to
// (a grid cell pass or a request's sequence position).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// layer is the aggregate of every span of one name.
type layer struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // sum of durations minus the parts children cover
}

// layers aggregates the spans by name. A span's self time is its
// duration minus the part of its interval its children cover, so
// parallel children are counted once.
func (t *tracer) layers() map[string]layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layer)
	for i, s := range t.spans {
		l := out[s.Name]
		l.count++
		l.total += time.Duration(s.End - s.Start)
		l.self += time.Duration(s.End - s.Start - covered(children[i], s.Start, s.End))
		out[s.Name] = l
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, v := range iv {
		a, b := max(v[0], cur), min(v[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracePath is where a traced run of workload at seed dumps its spans.
func tracePath(cfg config) string {
	return filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// printLayers prints each span name's count, mean duration and mean
// self time.
func printLayers(w io.Writer, ly map[string]layer) {
	names := make([]string, 0, len(ly))
	for n := range ly {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %8s %12s %12s\n", "span", "count", "mean_ms", "self_ms")
	for _, n := range names {
		l := ly[n]
		fmt.Fprintf(w, "%-22s %8d %12.4f %12.4f\n", n, l.count, ms(l.total)/float64(l.count), ms(l.self)/float64(l.count))
	}
}
