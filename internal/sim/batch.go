package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tegrecon/internal/core"
	"tegrecon/internal/trace"
)

// Job is one independent simulation: one controller over one trace on
// one system. Every experiment driver of Section VI decomposes into such
// jobs — four schemes over a shared trace (Table I), one scheme over many
// seeded traces (the seed sweep), one scheme per fault plan, horizon or
// flow weight (the extension studies).
//
// Jobs must not share a Controller instance: controllers carry mutable
// state (incumbent configuration, predictor history) and each job runs
// on its own goroutine. Systems and traces are shared freely — Batch.Run
// validates every system up front (the only mutating step: validation
// back-fills defaulted fluids), after which runs treat both as
// read-only.
type Job struct {
	Sys   *System
	Trace *trace.Trace
	Ctrl  core.Controller
	Opts  Options
}

// Batch executes independent simulation jobs across a bounded worker
// pool. Results keep the jobs' order, and on error the batch reports the
// failure of the lowest-indexed failing job — exactly what a serial loop
// would have surfaced.
//
// Determinism: every run seeds its own RNG from its Options.Seed and
// shares no mutable state with its neighbours, and the controller
// runtime the overhead model prices (Section III.C) is counted work,
// not the wall clock, so batch results are bit-identical to a serial
// loop's at any worker count.
type Batch struct {
	// Workers bounds concurrent jobs: 0 picks runtime.NumCPU(), 1 runs
	// the jobs one at a time on a single pool goroutine.
	Workers int
}

// Run executes the jobs and collects their results in job order. Every
// worker count runs the same claim loop: each pool goroutine claims the
// next unstarted job and runs it on a fresh Session. The context
// reaches every job's per-tick check (sim.Run), so a cancel aborts each
// in-flight run within one control period, stops the claim loop from
// starting new jobs, and — after every worker goroutine has drained —
// surfaces as the lowest-indexed job error wrapping ctx.Err(). No
// goroutines outlive the call.
func (b Batch) Run(ctx context.Context, jobs []Job) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// Validate every system once, serially, before any job runs:
	// System.Validate (via Radiator.Validate) back-fills zero-valued
	// fluids, so first-validation must not race between workers — and it
	// keeps the same early, job-indexed error at any worker count.
	for i, j := range jobs {
		if j.Sys == nil {
			return nil, jobError(i, j, fmt.Errorf("sim: nil system"))
		}
		if err := j.Sys.Validate(); err != nil {
			return nil, jobError(i, j, err)
		}
	}
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || failed.Load() || ctx.Err() != nil {
					return
				}
				j := jobs[i]
				r, err := Run(ctx, j.Sys, j.Trace, j.Ctrl, j.Opts)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, jobError(i, jobs[i], err)
		}
	}
	// A cancel can land while every worker sits between jobs (at the top
	// of the claim loop), in which case no run ever observed ctx and errs
	// stays empty — but unclaimed jobs left nil holes in results. Never
	// hand callers a partial slice with a nil error.
	if err := ctx.Err(); err != nil {
		for i, r := range results {
			if r == nil {
				return nil, jobError(i, jobs[i], err)
			}
		}
	}
	return results, nil
}

func jobError(i int, j Job, err error) error {
	name := "?"
	if j.Ctrl != nil {
		name = j.Ctrl.Name()
	}
	return fmt.Errorf("sim: batch job %d (%s): %w", i, name, err)
}
