// Package parallel provides the bounded worker pool behind the
// experiment sweep engine. Every consumer follows the same discipline:
// independent points are identified by a dense index, workers compute
// each point into caller-owned index-addressed storage, and the caller
// emits results in index order after ForEach returns — so output is
// byte-identical at any worker count and the only shared state is the
// result slice, which is written at disjoint indices.
//
// The pool is panic-isolated: a panicking point is captured with its
// stack and reported as that point's error (a *PanicError), never as a
// process crash — one poisoned point cannot take down a sweep that has
// hours of other points in flight. Workers drain normally after a
// panic; remaining points still run.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Workers resolves a requested worker count: values above zero are taken
// as-is, anything else means one worker per available CPU (GOMAXPROCS).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is the per-point error a recovered panic becomes: the
// panic value plus the goroutine stack at the panic site, so a crash in
// a long sweep is diagnosable from the sweep's own error output.
type PanicError struct {
	Index int    // the point that panicked
	Value any    // the value passed to panic()
	Stack string // debug.Stack() captured inside the recover
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: point %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// ForEach runs fn(i) for every i in [0, n) on at most
// Workers(workers) goroutines and returns the error of the lowest
// failing index — the same error a sequential loop that runs every
// point would report, regardless of schedule. fn must confine its
// writes to index i's slot of the caller's result storage.
//
// With one worker (or n <= 1) the points run inline on the calling
// goroutine, short-circuiting at the first error exactly like the
// pre-pool sequential loops; because later points are independent of
// earlier ones, the reported error is identical either way.
//
// A panic inside fn does not escape: it is recovered into a
// *PanicError for that index.
//
// The pool is instrumented: point execution latencies and
// pool-start-to-point-start queue waits feed log-bucketed histograms
// ("parallel.point.exec.seconds", "parallel.point.queue.seconds"), each
// worker publishes its busy fraction as a labeled utilization gauge
// when its pool drains, and a recovered panic lands in the flight
// recorder and triggers an automatic flight dump (if a driver installed
// a dump writer). All of it goes through obs.Default(), so an
// unobserved process pays only no-op interface calls.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach under a caller context: once ctx is
// cancelled no further point is dispatched, but points already
// executing finish normally — the pool never abandons work mid-point,
// so index-addressed results are always either complete or untouched.
// When ctx was cancelled before every point ran and no point failed,
// the return is ctx.Err(); a point error from the completed prefix
// still wins (lowest failing index, as ever). This is the backpressure
// seam hyve-serve leans on: a dropped request or a draining process
// stops a sweep at the next point boundary without corrupting any
// in-flight computation.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	rec := obs.Default()
	rec.Gauge("parallel.workers", float64(w))
	poolStart := time.Now()
	attempt := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				rec.Count("parallel.points.panicked", 1)
				obs.Flight().Record("parallel.point.panicked", strconv.Itoa(i),
					"value", fmt.Sprint(r))
				obs.DumpFlight("worker panic at point " + strconv.Itoa(i))
				err = &PanicError{Index: i, Value: r, Stack: string(debug.Stack())}
			}
		}()
		return fn(i)
	}
	point := func(i int) error {
		obs.Observe(rec, "parallel.point.queue.seconds", time.Since(poolStart).Seconds())
		rec.Count("parallel.points.inflight", 1)
		start := time.Now()
		err := attempt(i)
		obs.ObserveSince(rec, "parallel.point.exec.seconds", start)
		rec.Count("parallel.points.inflight", -1)
		rec.Count("parallel.points.completed", 1)
		return err
	}
	// utilization publishes worker k's busy fraction over the pool's
	// lifetime as a labeled gauge (last pool wins — the live view
	// tracks the most recent fan-out).
	utilization := func(k int, busy time.Duration) {
		wall := time.Since(poolStart)
		if wall <= 0 {
			return
		}
		rec.Gauge(obs.WithLabel("parallel.worker.utilization", "worker", strconv.Itoa(k)),
			busy.Seconds()/wall.Seconds())
	}
	if w <= 1 {
		var busy time.Duration
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				utilization(0, busy)
				return err
			}
			t0 := time.Now()
			err := point(i)
			busy += time.Since(t0)
			if err != nil {
				utilization(0, busy)
				return err
			}
		}
		utilization(0, busy)
		return nil
	}

	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		firstIdx  = n
		firstErr  error
		cancelled atomic.Bool
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var busy time.Duration
			defer func() { utilization(k, busy) }()
			for {
				// The cancellation check guards the claim, not the
				// execution: a point that was claimed runs to the end.
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				err := point(i)
				busy += time.Since(t0)
				if err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}(k)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}
