package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The machines this benchmark runs on are virtual, with CPUs shared with
// other tenants, and their speed drifts in two ways. A fixed loop's time
// moves by up to about 1.5x over tens of seconds, in phases that can
// outlast a run; and in busy stretches the hypervisor takes the vCPUs
// away for a share of the time (steal, up to 17% over whole minutes). A
// speed meter therefore runs a fixed calibration unit between the timed
// plans, at a steady cadence, and reads the kernel's steal count beside
// each unit. Every timing is stated at a reference speed: divided by the
// host's slowness over the same stretch, the median unit time over
// refUnit, over the share of the CPU time the VM wanted that it got. The
// unit runs none of the repository's code, so a change to the program
// moves the timings and not the meter.
const (
	// refUnit is the reference speed: timings read as if one
	// calibration unit took this long and nothing was stolen.
	refUnit = time.Millisecond
	// cadence is how often the meter runs a unit during a timed phase.
	cadence = 25 * time.Millisecond
	// burstUnits is how many units a burst runs back to back; a set-up
	// is rated by a burst right before and one right after it.
	burstUnits = 7
	// minUnits is how many units a stretch must hold to be rated.
	minUnits = 5
)

// calSample is one calibration unit: its midpoint and duration, and the
// kernel's cumulative CPU counts when it ended.
type calSample struct {
	at time.Time
	d  time.Duration
	cpuTicks
}

// cpuTicks are the kernel's cumulative counts, over every CPU, of time
// the VM ran (user, nice, system, irq, softirq) and of time it wanted to
// run while the hypervisor ran something else (steal).
type cpuTicks struct {
	busy, steal uint64
}

// readTicks reads the first line of /proc/stat.
func readTicks() (cpuTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("/proc/stat starts %q, want the cpu line with a steal count", line)
	}
	var v [9]uint64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseUint(f[i], 10, 64); err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}, nil
}

// speedMeter runs calibration units and keeps their times. The unit
// hashes 64 KiB with SHA-256, sorts 8192 pseudo-random integers and
// fills a map of 2048 of them, without allocating.
type speedMeter struct {
	buf     []byte
	ints    []int
	m       map[int]int
	last    time.Time
	samples []calSample
}

// newSpeedMeter makes a meter, checking that the kernel reports steal.
func newSpeedMeter() (*speedMeter, error) {
	if _, err := readTicks(); err != nil {
		return nil, err
	}
	return &speedMeter{buf: make([]byte, 64<<10), ints: make([]int, 8192), m: make(map[int]int, 2048)}, nil
}

// unit runs one calibration unit and records it.
func (s *speedMeter) unit() time.Duration {
	t0 := time.Now()
	sum := sha256.Sum256(s.buf)
	x := uint64(sum[0]) | 1
	for i := range s.ints {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.ints[i] = int(x >> 1)
	}
	sort.Ints(s.ints)
	clear(s.m)
	for i, v := range s.ints[:2048] {
		s.m[v] = i
	}
	t1 := time.Now()
	d := t1.Sub(t0)
	// newSpeedMeter read the file once; a failed read here leaves zero
	// counts, which slowness treats as no steal seen.
	ticks, _ := readTicks()
	s.samples = append(s.samples, calSample{at: t0.Add(d / 2), d: d, cpuTicks: ticks})
	s.last = time.Now()
	return d
}

// tick runs a unit if cadence has passed since the last one. Timed
// loops call it between plans, never inside one.
func (s *speedMeter) tick() {
	if time.Since(s.last) >= cadence {
		s.unit()
	}
}

// around times f between two bursts of burstUnits units back to back
// and returns f's duration and the slowness the bursts measure.
func (s *speedMeter) around(f func() error) (d time.Duration, slow float64, err error) {
	lo := time.Now()
	for i := 0; i < burstUnits; i++ {
		s.unit()
	}
	t0 := time.Now()
	err = f()
	d = time.Since(t0)
	for i := 0; i < burstUnits; i++ {
		s.unit()
	}
	if err != nil {
		return 0, 0, err
	}
	slow, _, err = s.slowness(lo, time.Now())
	return d, slow, err
}

// slowness rates the host over [lo, hi] from the units run in it: the
// median unit time over refUnit, divided by 1 - steal, where steal is
// the share of the CPU time the VM wanted between the first and the last
// unit that the hypervisor withheld. It is 1 at the reference speed and
// 1.5 when the host took 1.5x as long.
func (s *speedMeter) slowness(lo, hi time.Time) (slow, steal float64, err error) {
	var ds []float64
	var first, last *calSample
	for i := range s.samples {
		c := &s.samples[i]
		if c.at.Before(lo) || c.at.After(hi) {
			continue
		}
		ds = append(ds, float64(c.d))
		if first == nil {
			first = c
		}
		last = c
	}
	if len(ds) < minUnits {
		return 0, 0, fmt.Errorf("%d calibration units in a %v stretch, need %d", len(ds), hi.Sub(lo), minUnits)
	}
	if last.steal >= first.steal && last.busy >= first.busy {
		stolen, ran := float64(last.steal-first.steal), float64(last.busy-first.busy)
		steal = ratio(stolen, stolen+ran)
	}
	return median(ds) / float64(refUnit) / (1 - steal), steal, nil
}
