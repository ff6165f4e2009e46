// Package sweep is a deterministic parallel job executor for the
// simulation harness. Every point of an experiment grid (workload,
// design, capacity, seed) is an independent simulation, so drivers
// fan their points out over a bounded worker pool and gather results
// in job-index order: output is byte-identical no matter how many
// workers run or how the scheduler interleaves them.
//
// The contract that makes this safe is the same one the experiment
// drivers already obey: a job must build all of its own mutable state
// (generator, design, trackers) and communicate only through its
// result. Jobs that share mutable state are not sweepable.
//
// One failing point never takes the sweep down: a panic is recovered
// into a *PanicError, an optional per-point deadline bounds a stuck
// point, and every other point still runs and commits its result. The
// failures come back in index order, so a caller that cannot leave
// holes reports the lowest-indexed one — exactly what a serial loop
// that stopped at that point would have reported.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fpcache/internal/fault"
)

// Workers normalizes a worker-count request: values below 1 select
// GOMAXPROCS, matching the CLI convention that -j 0 means "all
// cores".
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Policy configures one sweep. The zero value runs every point once
// with no deadline.
type Policy struct {
	// Timeout is the per-point deadline; zero disables it. A timed-out
	// point fails with fault.ErrTimeout. Its goroutine is abandoned,
	// not killed: the result travels through a channel nobody reads
	// any more, so a straggler finishing late never commits it.
	Timeout time.Duration
	// Settled, when set, runs on the worker once point i has settled
	// (committed, failed, panicked or timed out) and before the worker
	// takes its next point. A timed-out point's job may still be
	// running when it does.
	Settled func(i int)
}

// PanicError is a recovered sweep-point panic. It wraps
// fault.ErrPointPanic and carries the recovered value and the
// goroutine stack captured at recovery (for a *ForwardedPanic, the
// value and stack it forwards).
type PanicError struct {
	Index int
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("point %d: %v: %v", e.Index, fault.ErrPointPanic, e.Value)
}

// Unwrap ties the panic into the fault taxonomy.
func (e *PanicError) Unwrap() error { return fault.ErrPointPanic }

// ForwardedPanic is a panic recovered on a goroutine a job started and
// raised again on the job's own goroutine. It keeps the stack of the
// goroutine that first panicked, which a recovery on the job's
// goroutine cannot see; a *PanicError built from it carries Value and
// Stack from it, the latter followed by where it was raised again.
type ForwardedPanic struct {
	Value any
	Stack string
}

// Error implements error, so a forwarded panic that no sweep recovers
// still prints the first goroutine's stack when it ends the process.
func (p *ForwardedPanic) Error() string {
	return fmt.Sprintf("%v\n\n%s", p.Value, p.Stack)
}

// PointError is one failed point: its job index and the job's error
// (a *PanicError for a recovered panic).
type PointError struct {
	Index int
	Err   error
}

// Error implements error.
func (e PointError) Error() string { return fmt.Sprintf("sweep: job %d: %v", e.Index, e.Err) }

// Unwrap exposes the job's error to errors.Is / fault.ClassOf.
func (e PointError) Unwrap() error { return e.Err }

// Map executes jobs 0..n-1 on at most workers goroutines (workers < 1
// selects GOMAXPROCS) and returns their results in job-index order,
// together with the failed points in index order. Every point runs
// whatever its neighbours do; a failed point leaves the zero value in
// its result slot. Results commit by index, so output is
// byte-identical at any worker count.
func Map[T any](workers, n int, pol Policy, job func(i int) (T, error)) ([]T, []PointError) {
	if n <= 0 {
		return nil, nil
	}
	workers = min(Workers(workers), n)
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				v, err := runPoint(i, pol.Timeout, job)
				if err != nil {
					errs[i] = err
				} else {
					out[i] = v
				}
				if pol.Settled != nil {
					pol.Settled(i)
				}
			}
		}()
	}
	wg.Wait()
	var failed []PointError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, PointError{Index: i, Err: err})
		}
	}
	return out, failed
}

// runPoint executes one point with panic isolation, bounded by the
// deadline when one is set.
func runPoint[T any](i int, timeout time.Duration, job func(i int) (T, error)) (T, error) {
	if timeout <= 0 {
		return guarded(i, job)
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := guarded(i, job)
		ch <- result{v, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
		var zero T
		return zero, fmt.Errorf("point %d: %w after %v", i, fault.ErrTimeout, timeout)
	}
}

// guarded runs the job, recovering a panic into a *PanicError.
func guarded[T any](i int, job func(i int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			pe := &PanicError{Index: i, Value: p, Stack: string(debug.Stack())}
			if fp, ok := p.(*ForwardedPanic); ok {
				pe.Value = fp.Value
				pe.Stack = fp.Stack + "\nraised again by:\n" + pe.Stack
			}
			err = pe
		}
	}()
	return job(i)
}
