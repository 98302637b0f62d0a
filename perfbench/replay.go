package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"noctest/internal/core"
	"noctest/internal/itc02"
	"noctest/internal/report"
	"noctest/internal/soc"
)

// quickRules is noctestd's search=quick strategy set in the server's
// order; ties go to the earlier rule, so the order is part of the
// answer.
func quickRules() []core.Scheduler {
	return []core.Scheduler{
		core.ListScheduler{Variant: core.GreedyFirstAvailable, Priority: core.ProcessorsFirst},
		core.ListScheduler{Variant: core.LookaheadFastestFinish, Priority: core.ProcessorsFirst},
		core.ListScheduler{Variant: core.GreedyFirstAvailable, Priority: core.VolumeDescending},
		core.ListScheduler{Variant: core.LookaheadFastestFinish, Priority: core.VolumeDescending},
		core.ListScheduler{Variant: core.GreedyFirstAvailable, Priority: core.LongestTestFirst},
		core.ListScheduler{Variant: core.LookaheadFastestFinish, Priority: core.LongestTestFirst},
		core.ListScheduler{Variant: core.LookaheadFastestFinish, Priority: core.DistanceOnly},
	}
}

// options translates the point into engine options as noctestd does.
func (p point) options() core.Options {
	o := core.Options{PowerLimitFraction: p.cell.power, BISTPatternFactor: report.PaperBISTFactor, MaxSegments: p.segs}
	if p.cell.reuse == 0 {
		o.DisableReuse = true
	} else {
		o.MaxReusedProcessors = p.cell.reuse
	}
	return o
}

// replayed is the library's answer for one distinct serve input.
type replayed struct {
	makespan, bound int
	stats           core.SearchStats
	race            time.Duration
	won             []string // families that reached the best makespan
	jsonBytes       int
}

// quickStats sums replayed inputs for the kernel and quality metrics.
type quickStats struct {
	core.SearchStats
	race      time.Duration
	jsonBytes int
	wins      map[string]int
}

func (q *quickStats) add(r replayed) {
	q.SearchStats.Add(r.stats)
	q.race += r.race
	q.jsonBytes += r.jsonBytes
	if q.wins == nil {
		q.wins = map[string]int{}
	}
	for _, f := range r.won {
		q.wins[f]++
	}
}

// replay recomputes every input in-process the way noctestd serves it:
// itc02.Parse, soc.Build, core.Compile, the seven quick list rules, and
// the plan and response encoding, plus the input's lower bound. Its
// spans give the parse, build and encode costs the server does not
// report. In serve-warm every request is a cache hit, so the models are
// built first and the allocation count covers only the race and the
// encoding, a hit's path.
func replay(ctx context.Context, pts []point, up [][]byte, cold bool, tr *tracer) ([]replayed, memDelta, error) {
	out := make([]replayed, len(pts))
	models := make([]*core.Model, len(pts))
	build := func(i int) error {
		m, lb, err := replayModel(pts[i], up[pts[i].bench()], tr, i)
		if err != nil {
			return fmt.Errorf("replaying input %d (%s): %w", i, pts[i].query(), err)
		}
		out[i].bound = lb
		if cold {
			return replayRace(ctx, m, &out[i], tr, i)
		}
		models[i] = m
		return nil
	}
	if cold {
		mem := memWatch()
		err := each(len(pts), build)
		return out, mem(), err
	}
	if err := each(len(pts), build); err != nil {
		return nil, memDelta{}, err
	}
	mem := memWatch()
	err := each(len(pts), func(i int) error { return replayRace(ctx, models[i], &out[i], tr, i) })
	return out, mem(), err
}

func replayModel(p point, upload []byte, tr *tracer, req int) (*core.Model, int, error) {
	t0 := time.Now()
	bench, err := itc02.Parse(bytes.NewReader(upload))
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	profile, err := soc.ProfileByName(p.cell.cpu)
	if err != nil {
		return nil, 0, err
	}
	cfg := soc.BuildConfig{Processors: p.cell.procs, Profile: profile, Topology: p.topo}
	if p.linkSeed != 0 {
		cfg.FailedLinkCount, cfg.FailedLinkSeed = 1, p.linkSeed
	}
	sys, err := soc.Build(bench, cfg)
	if err != nil {
		return nil, 0, err
	}
	t2 := time.Now()
	m, err := core.Compile(sys, p.options())
	if err != nil {
		return nil, 0, err
	}
	t3 := time.Now()
	lb := m.LowerBound().Cycles()
	t4 := time.Now()
	tr.add("itc02.parse", t0, t1, -1, req)
	tr.add("soc.build", t1, t2, -1, req)
	tr.add("core.compile", t2, t3, -1, req)
	tr.add("core.bound", t3, t4, -1, req)
	return m, lb, nil
}

// responseDoc mirrors the JSON document noctestd answers with, so the
// replay's encoding cost matches the server's.
type responseDoc struct {
	System     string          `json:"system"`
	Makespan   int             `json:"makespan"`
	Best       string          `json:"best"`
	Cache      string          `json:"cache"`
	CompileMs  float64         `json:"compile_ms"`
	ScheduleMs float64         `json:"schedule_ms"`
	Partial    bool            `json:"partial"`
	Strategies []strategyDoc   `json:"strategies"`
	Plan       json.RawMessage `json:"plan"`
}

type strategyDoc struct {
	Name      string  `json:"name"`
	Makespan  int     `json:"makespan,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Err       string  `json:"err,omitempty"`
}

func replayRace(ctx context.Context, m *core.Model, r *replayed, tr *tracer, req int) error {
	scheds := quickRules()
	t0 := time.Now()
	res, err := core.Portfolio{Schedulers: scheds, Workers: 1}.ScheduleModel(ctx, m)
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := res.Plan.Validate(); err != nil {
		return err
	}
	t2 := time.Now()
	if tr != nil {
		// Only the traced run reads the encoding's cost and size.
		if r.jsonBytes, err = encodeResponse(m, res, t1.Sub(t0)); err != nil {
			return err
		}
	}
	t3 := time.Now()
	tr.add("core.race", t0, t1, -1, req)
	tr.add("plan.validate", t1, t2, -1, req)
	tr.add("plan.encode", t2, t3, -1, req)
	r.makespan, r.stats, r.race = res.Makespan(), m.SearchStats(), t1.Sub(t0)
	for k, vr := range res.Results {
		if f := family(scheds[k]); vr.Err == nil && vr.Makespan == r.makespan && !slices.Contains(r.won, f) {
			r.won = append(r.won, f)
		}
	}
	return nil
}

// encodeResponse renders the plan and the response document as the
// server does and returns the plan's encoded size.
func encodeResponse(m *core.Model, res *core.PortfolioResult, race time.Duration) (int, error) {
	var planBuf bytes.Buffer
	if err := res.Plan.WriteJSON(&planBuf); err != nil {
		return 0, err
	}
	doc := responseDoc{
		System:     m.System().Name,
		Makespan:   res.Plan.Makespan(),
		Best:       res.Best,
		Cache:      "miss",
		ScheduleMs: ms(race),
		Plan:       json.RawMessage(bytes.TrimSpace(planBuf.Bytes())),
	}
	for _, vr := range res.Results {
		doc.Strategies = append(doc.Strategies, strategyDoc{Name: vr.Scheduler, Makespan: vr.Makespan, ElapsedMs: ms(vr.Elapsed)})
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		return 0, err
	}
	return planBuf.Len(), nil
}

// each runs f over 0..n-1 in order, stopping at the first error.
func each(n int, f func(int) error) error {
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return err
		}
	}
	return nil
}
