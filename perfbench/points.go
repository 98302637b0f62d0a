package main

import (
	"fmt"
	"math/rand"

	"noctest/internal/report"
)

// figureCell is one bar of the paper's Figure 1: a system with the
// paper's processor count and profile, how many of its processors are
// reused, and the power ceiling (0 = none). The BIST factor is the
// repository's calibration of the paper, report.PaperBISTFactor.
type figureCell struct {
	bench, cpu   string
	procs, reuse int
	power        float64
}

// figureCells lists the 56 cells of Figure 1 in paper order:
// {d695, p22810, p93791} x {leon, plasma} with report.PaperProcessors
// processors (6 or 8), 0..N of them reused in steps of 2, and the power
// ceiling off or at report.PaperPowerFraction.
func figureCells() []figureCell {
	var out []figureCell
	for _, spec := range report.PaperPanels() {
		for reuse := 0; reuse <= spec.Processors; reuse += 2 {
			for _, power := range []float64{0, report.PaperPowerFraction} {
				out = append(out, figureCell{bench: spec.Benchmark, cpu: spec.Processor, procs: spec.Processors, reuse: reuse, power: power})
			}
		}
	}
	return out
}

// A serve point is one /schedule request: a Figure 1 cell, plus the
// topology, failed link and segment cap, which noctestd also keys its
// model cache on. serve-warm sends the cells as the paper has them (an
// intact mesh, tests kept whole). serve-cold sends every cell on both
// fabrics and at both segment caps, with one failed link chosen by a
// seed that changes every round, so that no point repeats.
var (
	serveBenches = []string{"d695", "p22810", "p93791"}
	serveTopos   = []string{"mesh", "torus"}
	serveSegs    = []int{0, 2}
)

type point struct {
	cell     figureCell
	topo     string
	segs     int   // max-segments; 0 keeps tests whole
	linkSeed int64 // picks the one failed link; 0: no link fails
}

// bench is the point's index into serveBenches, the upload it sends.
func (p point) bench() int {
	for i, b := range serveBenches {
		if b == p.cell.bench {
			return i
		}
	}
	panic("perfbench: no upload for " + p.cell.bench)
}

// query renders the point as noctestd's query string, quick search.
func (p point) query() string {
	c := p.cell
	q := fmt.Sprintf("search=quick&procs=%d&cpu=%s&reuse=%d&bist=%g&topology=%s", c.procs, c.cpu, c.reuse, report.PaperBISTFactor, p.topo)
	if c.power > 0 {
		q += fmt.Sprintf("&power=%g", c.power)
	}
	if p.segs > 0 {
		q += fmt.Sprintf("&max-segments=%d", p.segs)
	}
	if p.linkSeed != 0 {
		q += fmt.Sprintf("&failed-links=1&seed=%d", p.linkSeed)
	}
	return q
}

// pointSet is a seed's serve traffic. Every round holds the same points
// up to the failed link, so the amount of work per round does not depend
// on the seed; the seed draws the failed links and the order of each
// round.
type pointSet struct {
	cells []figureCell
	seed  int64
	// perm is round permRound's order, kept while the round is sent.
	perm      []int
	permRound int
}

func newPointSet(seed int64) *pointSet {
	return &pointSet{cells: figureCells(), seed: seed}
}

// coldRound is how many requests one serve-cold round makes: every cell
// on both fabrics at both segment caps.
func (ps *pointSet) coldRound() int { return len(ps.cells) * len(serveTopos) * len(serveSegs) }

// order returns round r's permutation of n positions, drawn from a
// stream of its own, so it depends only on the seed, r and n.
func (ps *pointSet) order(r, n int) []int {
	if ps.perm == nil || ps.permRound != r || len(ps.perm) != n {
		ps.perm = rand.New(rand.NewSource(ps.seed<<24 ^ int64(r)<<8 ^ int64(n))).Perm(n)
		ps.permRound = r
	}
	return ps.perm
}

// linkSeed is round r's failed-link seed: distinct for every (seed,
// round), never 0. Round 0 is kept for the warm-up.
func (ps *pointSet) linkSeed(r int) int64 { return ps.seed<<24 | int64(r+1) }

// coldPoint returns position j of the list of round r's points before
// shuffling.
func (ps *pointSet) coldPoint(r, j int) point {
	nt, ns := len(serveTopos), len(serveSegs)
	return point{cell: ps.cells[j/(nt*ns)], topo: serveTopos[j/ns%nt], segs: serveSegs[j%ns], linkSeed: ps.linkSeed(r)}
}

// cold returns the i-th request of serve-cold: whole rounds, each every
// cell on both fabrics at both segment caps in a seed-drawn order, with
// the round's failed link. Timed rounds start at 1.
func (ps *pointSet) cold(i int) point {
	return ps.coldPoint(1+i/ps.coldRound(), ps.coldSlot(i))
}

// coldSlot is the i-th request's position in its round's list before
// shuffling: the same point in every round up to the failed link.
func (ps *pointSet) coldSlot(i int) int {
	n := ps.coldRound()
	return ps.order(1+i/n, n)[i%n]
}

// coldWarmup is serve-cold's set-up traffic: from round 0, which the
// timed sequence never reaches, every panel's full-reuse cell under the
// ceiling at both segment caps on the mesh, so every system is parsed
// and compiled once.
func (ps *pointSet) coldWarmup() []point {
	var out []point
	for _, c := range ps.cells {
		if c.reuse != c.procs || c.power == 0 {
			continue
		}
		for _, segs := range serveSegs {
			out = append(out, point{cell: c, topo: "mesh", segs: segs, linkSeed: ps.linkSeed(0)})
		}
	}
	return out
}

// warmSet is serve-warm's working set: the 56 Figure 1 cells as the
// paper has them, under noctestd's default cache capacity of 64.
func (ps *pointSet) warmSet() []point {
	out := make([]point, len(ps.cells))
	for i, c := range ps.cells {
		out[i] = point{cell: c, topo: "mesh"}
	}
	return out
}

// warm returns the i-th request of serve-warm as an index into the
// working set: rounds of the whole set, each in a seed-drawn order.
func (ps *pointSet) warm(i int) int {
	n := len(ps.cells)
	return ps.order(i/n, n)[i%n]
}
