package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"noctest/internal/plan"
	"noctest/internal/soc"
)

// PanicError records a strategy that panicked during a portfolio run.
// The panic is recovered at the strategy boundary — one broken search
// must degrade the race to its surviving members, not kill the whole
// process a server is running it in — and surfaces as the strategy's
// Err in the run's Results, where callers count it with errors.As.
type PanicError struct {
	// Scheduler is the strategy that panicked.
	Scheduler string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: scheduler %s panicked: %v", e.Scheduler, e.Value)
}

// runMember runs one strategy with panic isolation: a panic becomes a
// *PanicError result instead of unwinding into the worker pool. A
// Scorer reports its scored order and builds nothing; any other
// Scheduler returns its own plan, which is validated here because no
// later step rebuilds it.
func runMember(ctx context.Context, s Scheduler, m *Model, inc *Incumbent) (sc Scored, p *plan.Plan, err error) {
	defer func() {
		if v := recover(); v != nil {
			sc, p, err = Scored{}, nil, &PanicError{Scheduler: s.Name(), Value: v, Stack: string(debug.Stack())}
		}
	}()
	if sr, ok := s.(Scorer); ok {
		sc, err = sr.Score(ctx, m, inc)
		return sc, nil, err
	}
	if p, err = s.Schedule(ctx, m); err != nil {
		return Scored{}, nil, err
	}
	if err := p.Validate(); err != nil {
		return Scored{}, nil, fmt.Errorf("core: %s produced invalid plan: %w", s.Name(), err)
	}
	return Scored{}, p, nil
}

// Portfolio races a set of schedulers over a goroutine worker pool and
// keeps the minimum-makespan plan. The system is compiled once into a
// Model shared by every strategy and worker; each strategy replays the
// model with its own search, so the per-strategy cost is search, not
// recompilation. The zero value races DefaultPortfolio(0) on GOMAXPROCS
// workers.
type Portfolio struct {
	// Schedulers is the strategy set to race; nil selects
	// DefaultPortfolio(0).
	Schedulers []Scheduler
	// Workers bounds the concurrent scheduler runs; values below 1
	// select GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one event per completed strategy
	// whose makespan strictly improves on every strategy completed
	// before it in the same run — the anytime incumbent stream a serving
	// frontend forwards to its caller. Events are delivered serially (the
	// portfolio holds a lock across the call), so the callback needs no
	// locking of its own but must return promptly. The stream is
	// observational only: completion order depends on goroutine
	// interleaving, so the event sequence may differ between runs, but
	// the run's final result never does — selection still happens after
	// the race from the full result set, in portfolio order. The list
	// rules score before the race, so their events come first, in
	// portfolio order.
	Progress func(ProgressEvent)
}

// ProgressEvent is one live observation of a portfolio run: a strategy
// finished with a makespan better than any completed before it.
type ProgressEvent struct {
	// Scheduler is the strategy that produced the improvement.
	Scheduler string
	// Makespan is the improved plan's total test time.
	Makespan int
	// Elapsed is the strategy's wall time within the run.
	Elapsed time.Duration
}

// VariantResult is one scheduler's outcome within a portfolio run.
type VariantResult struct {
	// Scheduler is the strategy name.
	Scheduler string
	// Makespan is the plan's total test time, 0 when the run failed.
	Makespan int
	// Elapsed is the strategy's wall time.
	Elapsed time.Duration
	// Err is the strategy's failure, nil on success. A scored order
	// whose plan failed to build or validate counts as a failure.
	Err error
}

// PortfolioResult is the outcome of a ScheduleBest run.
type PortfolioResult struct {
	// Plan is the minimum-makespan plan across the portfolio.
	Plan *plan.Plan
	// Best is the name of the scheduler that produced Plan.
	Best string
	// Results holds every strategy's outcome, in portfolio order.
	Results []VariantResult
	// Scored holds the scored order each Scorer reported, in portfolio
	// order; the entry is zero for a member that never finished scoring
	// or returns its own plan. Model.Plan of an entry rebuilds that
	// member's plan, which the portfolio itself does for the winner
	// only. Callers that keep Results across many runs do not pin these
	// orders.
	Scored []Scored
	// BuildFailures counts winning scored orders whose plan failed to
	// build or validate; each one marked its member's Err and the
	// selection fell back to the next best member.
	BuildFailures int
}

// Makespan returns the winning plan's makespan.
func (r *PortfolioResult) Makespan() int { return r.Plan.Makespan() }

// Panics counts the run's strategies that panicked (Err holds a
// *PanicError): the race degraded to the surviving members.
func (r *PortfolioResult) Panics() int {
	n := 0
	for _, vr := range r.Results {
		var pe *PanicError
		if errors.As(vr.Err, &pe) {
			n++
		}
	}
	return n
}

// ScheduleBest races the default portfolio over sys under opts and
// returns the minimum-makespan plan with per-variant statistics.
func ScheduleBest(ctx context.Context, sys *soc.System, opts Options) (*PortfolioResult, error) {
	return Portfolio{}.ScheduleBest(ctx, sys, opts)
}

// ScheduleBest compiles sys under opts once and races the portfolio's
// schedulers over the shared model.
func (pf Portfolio) ScheduleBest(ctx context.Context, sys *soc.System, opts Options) (*PortfolioResult, error) {
	m, err := Compile(sys, opts)
	if err != nil {
		return nil, err
	}
	return pf.ScheduleModel(ctx, m)
}

// ScheduleModel races the portfolio's schedulers concurrently over one
// precompiled model and returns the minimum-makespan plan. Members are
// compared by score and only the winner's plan is built, under the
// lowest makespan with ties to the earliest scheduler in portfolio
// order, which makes the result deterministic for a fixed scheduler
// set regardless of goroutine interleaving. The winner is built with
// Model.Plan, which validates it; a plan-returning Scheduler's own plan
// is validated as it finishes. A winning order whose plan fails to
// build, validate or reproduce its score marks that member's Err, is
// counted in BuildFailures, and the next best member is built instead.
//
// The engine is an anytime search: when the context expires after at
// least one strategy has finished, the best completed member's plan is
// built and returned (interrupted strategies record their context
// error in Results); the build ignores the expired deadline, since it
// is one replay of an order already in hand. An error is returned only
// when the context ends with no member finished or every strategy
// fails.
//
// Before the race starts, the portfolio's deterministic list-rule
// members run as makespan-only passes (microseconds each). Their scores
// are their results — a list rule runs once — and they seed a shared
// Incumbent, which every Scorer in the race consumes for early-abort
// pruning: the fast greedy results immediately tighten the bound
// inside every concurrent anneal/restart chain. The incumbent is sealed
// once the race begins — see Incumbent for why live feeding would trade
// the engine's determinism contract for nothing.
//
// ScheduleModel may be called concurrently on the same model: every
// piece of run state — the incumbent, the result slices, the progress
// stream, each strategy's evaluator and rng — is allocated per call,
// and the only state the calls share through the model is the scratch
// pool (checked out per pass) and the atomic telemetry counters,
// neither of which feeds back into scheduling decisions. Two concurrent
// runs on one model therefore return results bit-identical to the same
// runs performed serially; the regression test racing them under the
// race detector pins this, because a long-running server answers many
// requests from one cached model.
func (pf Portfolio) ScheduleModel(ctx context.Context, m *Model) (*PortfolioResult, error) {
	scheds := pf.Schedulers
	if len(scheds) == 0 {
		// The model's Options carry the lane count so callers that only
		// configure Options get lanes without building a scheduler set.
		scheds = LanePortfolio(0, m.opts.Lanes)
	}

	results := make([]VariantResult, len(scheds))
	scored := make([]Scored, len(scheds))
	plans := make([]*plan.Plan, len(scheds)) // plan-returning members only
	// Progress state is per run, never per model: two requests racing the
	// same cached model each see only their own improvement stream.
	var progressMu sync.Mutex
	progressBest := -1
	run := func(i int, inc *Incumbent) {
		start := time.Now()
		sc, p, err := runMember(ctx, scheds[i], m, inc)
		res := VariantResult{Scheduler: scheds[i].Name(), Elapsed: time.Since(start), Err: err}
		if err == nil {
			if p != nil {
				res.Makespan = p.Makespan()
				plans[i] = p
			} else {
				res.Makespan = sc.Makespan
				scored[i] = sc
			}
			if pf.Progress != nil {
				progressMu.Lock()
				if progressBest < 0 || res.Makespan < progressBest {
					progressBest = res.Makespan
					pf.Progress(ProgressEvent{Scheduler: res.Scheduler, Makespan: res.Makespan, Elapsed: res.Elapsed})
				}
				progressMu.Unlock()
			}
		}
		results[i] = res
	}

	inc := NewIncumbent()
	var race []int
	for i, s := range scheds {
		if _, ok := s.(ListScheduler); !ok {
			race = append(race, i)
			continue
		}
		run(i, nil)
		if results[i].Err == nil {
			inc.Tighten(results[i].Makespan)
		}
	}

	workers := pf.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(race))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i, inc)
			}
		}()
	}
feed:
	for _, i := range race {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Stop feeding; in-flight runs see the cancellation through
			// their own context checks.
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	out := &PortfolioResult{Results: results, Scored: scored}
	// The build ignores the run's deadline: an expired context must
	// still return the best finished member's plan (the anytime
	// contract), and building is one replay of an order in hand.
	buildCtx := context.WithoutCancel(ctx)
	for {
		bestIdx := -1
		for i, r := range results {
			if r.Scheduler == "" || r.Err != nil {
				continue // never started before the deadline, or failed
			}
			if bestIdx < 0 || r.Makespan < results[bestIdx].Makespan {
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		p := plans[bestIdx]
		if p == nil {
			sc := scored[bestIdx]
			var err error
			p, err = m.Plan(buildCtx, sc.Variant, sc.Order, sc.Algorithm)
			if err == nil && p.Makespan() != sc.Makespan {
				err = fmt.Errorf("core: built plan makespan %d, scored %d", p.Makespan(), sc.Makespan)
			}
			if err != nil {
				results[bestIdx].Err = fmt.Errorf("core: %s: winning order does not build: %w", results[bestIdx].Scheduler, err)
				results[bestIdx].Makespan = 0
				out.BuildFailures++
				continue
			}
		}
		out.Plan = p
		out.Best = results[bestIdx].Scheduler
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	firstErr := results[0].Err
	for _, r := range results {
		if r.Err != nil {
			firstErr = r.Err
			break
		}
	}
	return nil, fmt.Errorf("core: every portfolio strategy failed: %w", firstErr)
}

// BatchJob is one cell of a batch run: either a precompiled model or a
// system-plus-options pair compiled on demand.
type BatchJob struct {
	// Label identifies the job in the results (e.g.
	// "p22810/power=0.5/reuse=8/packet").
	Label string
	// Sys is the placed system to schedule; ignored when Model is set.
	Sys *soc.System
	// Opts configures the run; ignored when Model is set.
	Opts Options
	// Model, when non-nil, is the precompiled model for this cell, so
	// batch drivers that already compiled (e.g. the report grid) are
	// not compiled again.
	Model *Model
}

// BatchResult is one job's outcome.
type BatchResult struct {
	// Label echoes the job's label.
	Label string
	// Result is the portfolio outcome, nil when Err is set.
	Result *PortfolioResult
	// Err is the job's failure, nil on success.
	Err error
}

// ScheduleAll schedules every job concurrently with the default
// portfolio and returns one result per job, in job order.
func ScheduleAll(ctx context.Context, jobs []BatchJob) []BatchResult {
	return Portfolio{}.ScheduleAll(ctx, jobs)
}

// ScheduleAll schedules every job concurrently, one portfolio run per
// job, over the portfolio's worker budget. The jobs are the concurrency
// unit: within a job the portfolio runs its schedulers sequentially, so
// the pool is never oversubscribed. Each job compiles its model once
// (or reuses job.Model when the caller precompiled). Results come back
// in job order; a cancelled context marks the unstarted jobs with the
// context error.
func (pf Portfolio) ScheduleAll(ctx context.Context, jobs []BatchJob) []BatchResult {
	workers := pf.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	inner := Portfolio{Schedulers: pf.Schedulers, Workers: 1}

	out := make([]BatchResult, len(jobs))
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				m, err := jobs[i].Model, error(nil)
				if m == nil {
					m, err = Compile(jobs[i].Sys, jobs[i].Opts)
				}
				var res *PortfolioResult
				if err == nil {
					res, err = inner.ScheduleModel(ctx, m)
				}
				out[i] = BatchResult{Label: jobs[i].Label, Result: res, Err: err}
			}
		}()
	}
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			out[i] = BatchResult{Label: jobs[i].Label, Err: ctx.Err()}
		}
	}
	close(feed)
	wg.Wait()
	return out
}
