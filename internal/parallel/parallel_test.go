package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-3); got != want {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		hits := make([]atomic.Int32, n)
		err := ForEach(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(8, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReportsLowestFailingIndex(t *testing.T) {
	fail := map[int]bool{13: true, 5: true, 70: true}
	for _, workers := range []int{1, 8} {
		err := ForEach(workers, 100, func(i int) error {
			if fail[i] {
				return fmt.Errorf("point %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "point 5" {
			t.Errorf("workers=%d: err = %v, want point 5", workers, err)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 50
	var inFlight, peak atomic.Int32
	err := ForEach(workers, n, func(int) error {
		now := inFlight.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent points, cap %d", p, workers)
	}
}

func TestForEachSequentialShortCircuits(t *testing.T) {
	ran := 0
	err := ForEach(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 4 {
		t.Errorf("ran %d points (err %v), want short-circuit after index 3", ran, err)
	}
}

func TestForEachRecoversPanicsIntoPointErrors(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		err := ForEach(workers, 40, func(i int) error {
			ran.Add(1)
			if i == 7 {
				panic("poisoned point")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 7 || pe.Value != "poisoned point" {
			t.Errorf("workers=%d: PanicError = {%d %v}", workers, pe.Index, pe.Value)
		}
		if pe.Stack == "" || !strings.Contains(pe.Error(), "poisoned point") {
			t.Errorf("workers=%d: panic error lacks stack or value: %q", workers, pe.Error())
		}
		if workers > 1 && ran.Load() != 40 {
			// Pooled mode drains: the other 39 points still run.
			t.Errorf("workers=%d: ran %d of 40 points after panic", workers, ran.Load())
		}
	}
}

func TestForEachPanickingPointReportsLowestIndex(t *testing.T) {
	err := ForEach(8, 100, func(i int) error {
		switch i {
		case 11:
			panic(11)
		case 42:
			return errors.New("plain failure")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 11 {
		t.Fatalf("err = %v, want panic at index 11", err)
	}
}

// TestForEachPanicHammer is the race-condition hammer: many workers,
// many points, a third of them panicking, run under -race in CI. The
// pool must drain cleanly, report the lowest poisoned index, and never
// double-run or skip a point.
func TestForEachPanicHammer(t *testing.T) {
	for round := 0; round < 20; round++ {
		const n = 300
		hits := make([]atomic.Int32, n)
		err := ForEach(16, n, func(i int) error {
			hits[i].Add(1)
			if i%3 == 0 {
				panic(i)
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 0 {
			t.Fatalf("round %d: err = %v, want panic at index 0", round, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("round %d: index %d ran %d times", round, i, c)
			}
		}
	}
}

// TestForEachCtxStopsDispatchOnCancel proves the ForEachCtx contract:
// cancellation stops new points from being claimed, points already in
// flight run to completion (their slots are fully written), and the
// pool reports ctx.Err() when no point itself failed.
func TestForEachCtxStopsDispatchOnCancel(t *testing.T) {
	const n, workers = 64, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu      sync.Mutex
		ran     = make([]bool, n)
		started = make(chan int, n)
		release = make(chan struct{})
	)
	// Once every worker holds a point, cancel the context, then let the
	// in-flight points finish.
	go func() {
		for j := 0; j < workers; j++ {
			<-started
		}
		cancel()
		close(release)
	}()
	err := ForEachCtx(ctx, workers, n, func(i int) error {
		started <- i
		<-release
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("cancelled pool returned %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	var count int
	for _, r := range ran {
		if r {
			count++
		}
	}
	// Exactly the in-flight points at cancellation time completed; none
	// was abandoned half-done and none was dispatched afterwards.
	if count != workers {
		t.Fatalf("%d points ran, want exactly the %d in flight at cancellation", count, workers)
	}
}

// ForEachCtx with a pre-cancelled context runs nothing.
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int64
	for _, workers := range []int{1, 8} {
		if err := ForEachCtx(ctx, workers, 16, func(i int) error {
			runs.Add(1)
			return nil
		}); err != context.Canceled {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
	if runs.Load() != 0 {
		t.Fatalf("%d points ran under a pre-cancelled context", runs.Load())
	}
}

// A point error from the completed prefix still beats ctx.Err().
func TestForEachCtxPointErrorWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEachCtx(ctx, 2, 8, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want the point error", err)
	}
}
