package check

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNewPointDeterministic(t *testing.T) {
	a, err := NewPoint(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPoint(7)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed drew different points: %s vs %s", a, b)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("same seed drew different graphs: %d vs %d edges",
			a.Graph.NumEdges(), b.Graph.NumEdges())
	}
	c, err := NewPoint(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() && a.Graph.NumEdges() == c.Graph.NumEdges() {
		t.Fatalf("seeds 7 and 8 drew the identical point %s", a)
	}
}

func TestRunSweepPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is not short")
	}
	var buf bytes.Buffer
	sum, err := Run(Options{Seed: 1, Points: 8, Out: &buf})
	if err != nil {
		t.Fatalf("sweep errored: %v\n%s", err, buf.String())
	}
	if !sum.OK() {
		sum.WriteReport(&buf)
		t.Fatalf("sweep found violations:\n%s", buf.String())
	}
	if sum.Points != 8 {
		t.Fatalf("ran %d points, want 8", sum.Points)
	}
	for _, inv := range sum.Invariants {
		if inv.Runs == 0 {
			t.Errorf("invariant %q never ran in 8 points", inv.Name)
		}
	}
}

func TestRunDurationBudget(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, budget := range []time.Duration{time.Nanosecond, 200 * time.Millisecond} {
			var out bytes.Buffer
			sum, err := run(Options{Seed: 1, Duration: budget, Verbose: true, Out: &out}, workers, Invariants())
			if err != nil {
				t.Fatal(err)
			}
			if sum.Points < 1 {
				t.Fatalf("workers=%d budget=%v: expired budget must still run one point, ran %d", workers, budget, sum.Points)
			}
			// Points that finish past the deadline are dropped; the ones
			// kept are the first seeds, in order.
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if len(lines) != sum.Points {
				t.Fatalf("workers=%d budget=%v: %d progress lines for %d points:\n%s", workers, budget, len(lines), sum.Points, out.String())
			}
			for i, line := range lines {
				if want := fmt.Sprintf("ok   seed=%d ", 1+i); !strings.HasPrefix(line, want) {
					t.Fatalf("workers=%d budget=%v: line %d is %q, want prefix %q", workers, budget, i, line, want)
				}
			}
		}
	}
}

// TestRunWorkersMatchSequential pins the worker-count contract: the
// progress lines and the report are the same bytes at every worker
// count, because points fold in seed order however they finish.
func TestRunWorkersMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is not short")
	}
	var wantOut, wantRep []byte
	for _, workers := range []int{1, 2, 4} {
		var out, rep bytes.Buffer
		sum, err := run(Options{Seed: 1, Points: 12, Verbose: true, Out: &out}, workers, Invariants())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sum.WriteReport(&rep)
		if workers == 1 {
			wantOut, wantRep = out.Bytes(), rep.Bytes()
			continue
		}
		if !bytes.Equal(out.Bytes(), wantOut) {
			t.Errorf("workers=%d progress differs from 1 worker:\n%s\nwant:\n%s", workers, out.Bytes(), wantOut)
		}
		if !bytes.Equal(rep.Bytes(), wantRep) {
			t.Errorf("workers=%d report differs from 1 worker:\n%s\nwant:\n%s", workers, rep.Bytes(), wantRep)
		}
	}
}

func TestRunDefaultBudget(t *testing.T) {
	// Neither Points nor Duration: documented default size. Only check
	// the plumbing (point count), not the invariants, to keep this fast —
	// TestRunSweepPasses covers correctness.
	if testing.Short() {
		t.Skip("default sweep is not short")
	}
	sum, err := Run(Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Points != DefaultPoints {
		t.Fatalf("default sweep ran %d points, want %d", sum.Points, DefaultPoints)
	}
	if !sum.OK() {
		var buf bytes.Buffer
		sum.WriteReport(&buf)
		t.Fatalf("default sweep found violations:\n%s", buf.String())
	}
}

func TestWriteReportListsEveryInvariant(t *testing.T) {
	sum, err := Run(Options{Seed: 1, Points: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sum.WriteReport(&buf)
	out := buf.String()
	for _, inv := range Invariants() {
		if !strings.Contains(out, inv.Name) {
			t.Errorf("report omits invariant %q:\n%s", inv.Name, out)
		}
	}
	if !strings.Contains(out, "PASS") {
		t.Errorf("passing report lacks verdict:\n%s", out)
	}
}

func TestInvariantRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, inv := range Invariants() {
		if inv.Name == "" || inv.Check == nil {
			t.Fatalf("malformed invariant %+v", inv)
		}
		if inv.Tolerance == "" {
			t.Errorf("invariant %q does not document its tolerance", inv.Name)
		}
		if seen[inv.Name] {
			t.Errorf("duplicate invariant name %q", inv.Name)
		}
		seen[inv.Name] = true
	}
}

func TestRunPointTimeoutAbandonsAndContinues(t *testing.T) {
	t.Cleanup(func() { obs.SetFlightDump(nil) })
	for _, workers := range []int{1, 4} {
		var out, dump bytes.Buffer
		obs.SetFlightDump(&dump)
		// A nanosecond limit is below any real point's build time, so
		// every point must be abandoned: no failures, no completed
		// points, every seed recorded in seed order, and the sweep
		// itself still terminates.
		sum, err := run(Options{Seed: 1, Points: 3, PointTimeout: time.Nanosecond, Out: &out}, workers, Invariants())
		if err != nil {
			t.Fatal(err)
		}
		if sum.Points != 0 || len(sum.TimedOut) != 3 {
			t.Fatalf("workers=%d: Points=%d TimedOut=%d, want 0 and 3", workers, sum.Points, len(sum.TimedOut))
		}
		for i, to := range sum.TimedOut {
			if to.Seed != uint64(1+i) || to.Limit != time.Nanosecond {
				t.Errorf("workers=%d: TimedOut[%d] = %+v", workers, i, to)
			}
		}
		if !sum.OK() {
			t.Error("timed-out points must not count as violations")
		}
		if sum.Complete() {
			t.Error("Complete() must be false with abandoned points")
		}
		want := "TIMEOUT seed=1 abandoned after 1ns\nTIMEOUT seed=2 abandoned after 1ns\nTIMEOUT seed=3 abandoned after 1ns\n"
		if out.String() != want {
			t.Errorf("workers=%d: progress lines:\n%s\nwant:\n%s", workers, out.String(), want)
		}
		// The flight ring is process-wide: one dump per run, at the
		// first timeout, not one more copy per abandoned point.
		if n := strings.Count(dump.String(), "--- flight recorder dump"); n != 1 {
			t.Errorf("workers=%d: %d flight dumps, want 1", workers, n)
		}
		var rep bytes.Buffer
		sum.WriteReport(&rep)
		if !strings.Contains(rep.String(), "PASS (incomplete)") {
			t.Errorf("report must flag the incomplete pass:\n%s", rep.String())
		}
		if !strings.Contains(rep.String(), "-seed 1 -points 1") {
			t.Errorf("report must say how to reproduce the abandoned seed:\n%s", rep.String())
		}
	}
}

func TestRunGenerousPointTimeoutCompletes(t *testing.T) {
	sum, err := Run(Options{Seed: 1, Points: 1, PointTimeout: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Points != 1 || !sum.Complete() {
		t.Fatalf("Points=%d TimedOut=%d, want a completed sweep", sum.Points, len(sum.TimedOut))
	}
}

// TestRunRemovesAbandonedPointDirs: a point abandoned at its timeout
// while an invariant still holds a temp directory must not leave that
// directory in $TMPDIR once the sweep returns.
func TestRunRemovesAbandonedPointDirs(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	made, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	hold := Invariant{
		Name:      "holds-a-dir",
		Tolerance: "blocks until the test ends",
		Check: func(p *Point) error {
			_, err := p.tempDir("held")
			close(made)
			<-release
			return err
		},
	}
	sum, err := run(Options{Seed: 1, Points: 1, PointTimeout: 100 * time.Millisecond}, 1, []Invariant{hold})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.TimedOut) != 1 {
		t.Fatalf("TimedOut = %v, want the one blocked point", sum.TimedOut)
	}
	// Whether the invariant made its directory before the sweep
	// returned or tried after, nothing of it may be left.
	<-made
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in $TMPDIR: %s", e.Name())
	}
}

// TestRunRemovesDirOfLiveWriter: an invariant that keeps writing into
// its directory after its point is abandoned must not leave anything in
// $TMPDIR once the sweep returns. os.RemoveAll alone gives up when the
// writer adds an entry during its walk.
func TestRunRemovesDirOfLiveWriter(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	write := Invariant{
		Name:      "keeps-writing",
		Tolerance: "writes until its directory is gone",
		Check: func(p *Point) error {
			defer close(done)
			dir, err := p.tempDir("writer")
			if err != nil {
				return err
			}
			close(started)
			// 32 files live at a time: the directory churns without
			// growing, until a write finds it gone.
			for i := 0; ; i++ {
				select {
				case <-stop:
					return nil
				default:
				}
				if err := os.WriteFile(filepath.Join(dir, strconv.Itoa(i%64)), nil, 0o644); err != nil {
					return err
				}
				os.Remove(filepath.Join(dir, strconv.Itoa((i+32)%64)))
			}
		},
	}
	sum, err := run(Options{Seed: 1, Points: 1, PointTimeout: 50 * time.Millisecond}, 1, []Invariant{write})
	if err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	select {
	case <-started:
	default:
		t.Fatal("the invariant never made its directory")
	}
	if len(sum.TimedOut) != 1 {
		t.Fatalf("TimedOut = %v, want the one writing point", sum.TimedOut)
	}
	for _, e := range left {
		t.Errorf("left behind in $TMPDIR: %s", e.Name())
	}
}
