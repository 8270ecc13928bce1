package check

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Options configures a conformance sweep.
type Options struct {
	// Seed is the base seed; point i uses Seed+i.
	Seed uint64
	// Points caps the number of points (0 = until Duration).
	Points int
	// Duration caps wall-clock time (0 = until Points). With both zero
	// the sweep runs DefaultPoints points.
	Duration time.Duration
	// Verbose streams one line per point to Out.
	Verbose bool
	// Out receives progress and the closing table (nil = discard).
	Out io.Writer
	// PointTimeout bounds the wall-clock time of a single point (build +
	// every invariant). A point that exceeds it is abandoned — its seed
	// recorded in Summary.TimedOut, its goroutine left to finish or hang
	// on its own — and the sweep moves on, so one pathological seed
	// cannot wedge a CI sweep forever. 0 means no limit.
	PointTimeout time.Duration
}

// DefaultPoints is the sweep size when neither budget is set.
const DefaultPoints = 16

// Failure records one invariant violation.
type Failure struct {
	Invariant string
	Seed      uint64
	Point     string
	Err       error
}

// InvariantSummary aggregates one invariant over the sweep.
type InvariantSummary struct {
	Name      string
	Tolerance string
	Runs      int
	Failures  int
}

// TimedOutPoint records a point abandoned at Options.PointTimeout: the
// seed reproduces it (-seed N -points 1), the limit says how long it
// was given.
type TimedOutPoint struct {
	Seed  uint64
	Limit time.Duration
}

// Summary is the outcome of a sweep.
type Summary struct {
	Points     int
	Checks     int
	Invariants []InvariantSummary
	Failures   []Failure
	// TimedOut lists abandoned points. They are not failures — no
	// invariant was violated — but a sweep with timed-out points did not
	// actually check everything it was asked to, so drivers must not let
	// it pass silently (hyve-check exits 2).
	TimedOut []TimedOutPoint
}

// OK reports whether every completed check passed.
func (s *Summary) OK() bool { return len(s.Failures) == 0 }

// Complete reports whether every point actually ran to completion.
func (s *Summary) Complete() bool { return len(s.TimedOut) == 0 }

// Run executes the conformance sweep: deterministic seeds Seed, Seed+1,
// … drive randomized points, and every applicable invariant runs at
// every point. Points run on the parallel pool, one worker per CPU
// (GOMAXPROCS), and fold into the summary and the progress lines in
// seed order, so the output is the same at every worker count. At least
// one point always runs, even under an expired duration budget, so a
// sweep can never vacuously pass.
func Run(opt Options) (*Summary, error) {
	return run(opt, parallel.Workers(0), Invariants())
}

// run is Run on the given number of workers and invariants. The
// invariants' files go in one directory that run removes when it
// returns, points it abandoned at the timeout included
// (removeSweepDir).
func run(opt Options, workers int, invs []Invariant) (*Summary, error) {
	out := opt.Out
	if out == nil {
		out = io.Discard
	}
	tmp, err := os.MkdirTemp("", "hyve-check")
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	defer removeSweepDir(tmp)
	sum := &Summary{Invariants: make([]InvariantSummary, len(invs))}
	for i, inv := range invs {
		sum.Invariants[i] = InvariantSummary{Name: inv.Name, Tolerance: inv.Tolerance}
	}

	n := opt.Points
	if n <= 0 {
		n = DefaultPoints
		if opt.Duration > 0 {
			n = math.MaxInt // until the deadline
		}
	}
	deadline := time.Time{}
	if opt.Duration > 0 {
		deadline = time.Now().Add(opt.Duration)
	}

	// fold adds point i's outcome to the summary and prints its lines.
	fold := func(i int, res *pointResult) {
		seed := opt.Seed + uint64(i)
		if res == nil {
			// Abandoned at the limit; its goroutine finishes (or hangs)
			// on its own and its results, if any, are discarded.
			sum.TimedOut = append(sum.TimedOut, TimedOutPoint{Seed: seed, Limit: opt.PointTimeout})
			fmt.Fprintf(out, "TIMEOUT seed=%d abandoned after %v\n", seed, opt.PointTimeout)
			return
		}
		sum.Points++
		sum.Checks += res.checks
		for j := range invs {
			sum.Invariants[j].Runs += res.runs[j]
		}
		for _, f := range res.failures {
			sum.Invariants[f.invIndex].Failures++
			sum.Failures = append(sum.Failures, f.Failure)
			fmt.Fprintf(out, "FAIL %-22s %s\n     %v\n", f.Invariant, f.Point, f.Err)
		}
		if opt.Verbose && len(res.failures) == 0 {
			fmt.Fprintf(out, "ok   %s\n", res.point)
		}
	}

	// The pool runs points in any order and hands each outcome to this
	// goroutine, which folds them in seed order: a finished point waits
	// in pending until every lower index has folded. Folding stops at
	// the first index that never arrives (a point that found the
	// deadline passed, or one that panicked) and at the first point
	// that failed to build. Either cancels ctx, which stops the pool
	// from starting points; those already running finish, and every
	// index below a started one has started too, so the folded prefix is
	// the one a sequential loop would fold.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		i   int
		res *pointResult
		err error
	}
	outcomes := make(chan outcome)
	poolErr := make(chan error, 1)
	var dumped sync.Once
	go func() {
		poolErr <- parallel.ForEachCtx(ctx, workers, n, func(i int) error {
			if i > 0 && !deadline.IsZero() && time.Now().After(deadline) {
				cancel()
				return nil
			}
			res, err := runPointWithTimeout(opt.Seed+uint64(i), invs, tmp, opt.PointTimeout, &dumped)
			if err != nil {
				cancel()
			}
			outcomes <- outcome{i, res, err}
			return nil
		})
		close(outcomes)
	}()

	pending := map[int]outcome{}
	next := 0
	var runErr error
	for o := range outcomes {
		pending[o.i] = o
		for runErr == nil {
			p, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			runErr = p.err
			if runErr == nil {
				fold(next, p.res)
				next++
			}
		}
	}
	if err := <-poolErr; runErr == nil && err != nil && !errors.Is(err, context.Canceled) {
		// A point panicked (possible only without a point timeout,
		// where the point runs on the pool's own goroutine).
		runErr = err
	}
	return sum, runErr
}

// removeSweepDir removes the sweep's directory while abandoned points
// may still write into it. os.RemoveAll gives up when a writer adds an
// entry during its walk, so the directory first moves into a fresh
// sibling: writers address their files by path, and from then on they
// fail instead of adding entries. A create already in flight at the
// move can still land once, which the second removal takes.
func removeSweepDir(dir string) {
	if trash, err := os.MkdirTemp(filepath.Dir(dir), filepath.Base(dir)+".rm"); err == nil {
		if os.Rename(dir, filepath.Join(trash, "sweep")) == nil {
			dir = trash
		} else {
			os.Remove(trash)
		}
	}
	if os.RemoveAll(dir) != nil {
		os.RemoveAll(dir)
	}
}

// pointResult is one point's completed outcome, assembled off to the
// side so a timed-out point can be discarded wholesale without having
// touched the shared summary.
type pointResult struct {
	point    string
	checks   int
	runs     []int // per-invariant applicable-run counts
	failures []indexedFailure
}

type indexedFailure struct {
	Failure
	invIndex int
}

// runPoint builds the seed's point and runs every applicable invariant;
// the invariants make their directories in tmp. Each invariant's wall
// time feeds a labeled histogram
// ("check.invariant.seconds"|invariant=<name>), so a sweep's slowest
// invariants are visible on /metrics, and point lifecycle events land in
// the flight recorder for the timeout dump.
func runPoint(seed uint64, invs []Invariant, tmp string) (*pointResult, error) {
	rec := obs.Default()
	obs.Flight().Record("check.point.start", strconv.FormatUint(seed, 10))
	p, err := NewPoint(seed)
	if err != nil {
		return nil, fmt.Errorf("check: building point for seed %d: %w", seed, err)
	}
	p.tmp = tmp
	res := &pointResult{point: p.String(), runs: make([]int, len(invs))}
	for j := range invs {
		inv := &invs[j]
		if inv.Applies != nil && !inv.Applies(p) {
			continue
		}
		res.checks++
		res.runs[j]++
		start := time.Now()
		err := inv.Check(p)
		obs.ObserveSince(rec, obs.WithLabel("check.invariant.seconds", "invariant", inv.Name), start)
		if err != nil {
			obs.Flight().Record("check.invariant.fail", inv.Name,
				"seed", strconv.FormatUint(seed, 10), "err", err.Error())
			res.failures = append(res.failures, indexedFailure{
				Failure:  Failure{Invariant: inv.Name, Seed: seed, Point: p.String(), Err: err},
				invIndex: j,
			})
		}
	}
	obs.Flight().Record("check.point.done", strconv.FormatUint(seed, 10))
	return res, nil
}

// runPointWithTimeout runs the point under a wall-clock limit. A nil,
// nil return means the limit expired: the point's goroutine is left
// running (a wedged simulation cannot be cancelled from outside; the
// leak is bounded by one goroutine per timed-out point) and delivers
// its eventual result into a buffered channel nobody reads. Only the
// sweep's first timeout dumps the flight ring (dumped guards it): the
// ring is process-wide, so every later dump would repeat the first.
// Later timeouts still record their flight event and TIMEOUT line.
func runPointWithTimeout(seed uint64, invs []Invariant, tmp string, limit time.Duration, dumped *sync.Once) (*pointResult, error) {
	if limit <= 0 {
		return runPoint(seed, invs, tmp)
	}
	type outcome struct {
		res *pointResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, err := runPoint(seed, invs, tmp)
		ch <- outcome{r, err}
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timer.C:
		obs.Default().Count("check.points.timedout", 1)
		obs.Flight().Record("check.point.timeout", strconv.FormatUint(seed, 10),
			"limit", limit.String())
		dumped.Do(func() { obs.DumpFlight("check point timeout at seed " + strconv.FormatUint(seed, 10)) })
		return nil, nil
	}
}

// WriteReport renders the per-invariant table and verdict.
func (s *Summary) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "\n%d points, %d checks\n", s.Points, s.Checks)
	fmt.Fprintf(w, "%-22s %5s %5s  %s\n", "invariant", "runs", "fail", "tolerance")
	for _, inv := range s.Invariants {
		fmt.Fprintf(w, "%-22s %5d %5d  %s\n", inv.Name, inv.Runs, inv.Failures, inv.Tolerance)
	}
	for _, to := range s.TimedOut {
		fmt.Fprintf(w, "TIMEOUT: seed %d abandoned after %v; reproduce with -seed %d -points 1\n",
			to.Seed, to.Limit, to.Seed)
	}
	if s.OK() {
		if !s.Complete() {
			fmt.Fprintf(w, "PASS (incomplete): no violations, but %d point(s) timed out\n", len(s.TimedOut))
			return
		}
		fmt.Fprintln(w, "PASS: every invariant held at every point")
		return
	}
	fmt.Fprintf(w, "FAIL: %d violations; reproduce one with -seed <seed> -points 1:\n", len(s.Failures))
	for _, f := range s.Failures {
		fmt.Fprintf(w, "  %s at %s: %v\n", f.Invariant, f.Point, f.Err)
	}
}
