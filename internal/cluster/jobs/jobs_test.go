package jobs

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
)

// TestMain doubles as the worker-subprocess entry point: when the
// gate env var is set, this test binary IS a hyve-worker (the standard
// helper-process pattern, so the SIGKILL chaos test needs no separate
// build step).
func TestMain(m *testing.M) {
	if addr := os.Getenv("HYVE_TEST_WORKER_CONNECT"); addr != "" {
		os.Exit(workerHelper(addr))
	}
	os.Exit(m.Run())
}

// workerHelper runs a real worker process against the coordinator at
// addr. HYVE_TEST_WORKER_CHAOS_MS, when set, stretches each point's
// reporting to hold leases open for the kill window.
func workerHelper(addr string) int {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker helper: dial:", err)
		return 1
	}
	var chaos time.Duration
	if ms := os.Getenv("HYVE_TEST_WORKER_CHAOS_MS"); ms != "" {
		var n int
		fmt.Sscanf(ms, "%d", &n)
		chaos = time.Duration(n) * time.Millisecond
	}
	done, err := cluster.RunWorker(context.Background(), conn, cluster.WorkerConfig{
		Name:       "helper",
		Factory:    Factory(nil),
		Parallel:   1,
		ChaosDelay: chaos,
	})
	if done {
		return 0
	}
	fmt.Fprintln(os.Stderr, "worker helper:", err)
	return 1
}

// simSpecSmall is the sweep every identity test runs: small enough for
// test time, wide enough to cross shard boundaries.
func simSpecSmall(t *testing.T) ([]byte, cluster.Job) {
	t.Helper()
	spec, err := NewSimSpec(SimSpec{Datasets: []string{"YT"}, Algos: []string{"PR", "BFS"}, Configs: []string{"hyve-opt", "sd"}, SRAMMB: 2})
	if err != nil {
		t.Fatalf("NewSimSpec: %v", err)
	}
	job, err := Decode(spec, nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return spec, job
}

// sequentialBytes computes the single-process reference artifact.
func sequentialBytes(t *testing.T, job cluster.Job) [][]byte {
	t.Helper()
	out := make([][]byte, job.Points())
	for i := range out {
		p, err := job.Execute(context.Background(), i)
		if err != nil {
			t.Fatalf("sequential point %d: %v", i, err)
		}
		out[i] = p
	}
	return out
}

// TestClusterIdentity: two in-process workers over pipes, one yanked
// mid-sweep — the merged artifact is byte-identical to a sequential
// single-process run.
func TestClusterIdentity(t *testing.T) {
	spec, job := simSpecSmall(t)
	want := sequentialBytes(t, job)

	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Spec:      spec,
		Points:    job.Points(),
		ShardSize: 1,
		LeaseTTL:  time.Second,
		Validate:  job.Validate,
		Local:     job, // dead workers must never wedge the test
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- coord.Run(ctx) }()

	// Worker 1 computes slowly (chaos delay) and is yanked mid-sweep.
	s1, c1 := net.Pipe()
	go coord.ServeConn(s1)
	go cluster.RunWorker(ctx, c1, cluster.WorkerConfig{
		Name: "doomed", Factory: Factory(nil), Parallel: 1,
		ChaosDelay: 200 * time.Millisecond,
	})
	// Worker 2 behaves.
	s2, c2 := net.Pipe()
	go coord.ServeConn(s2)
	go cluster.RunWorker(ctx, c2, cluster.WorkerConfig{
		Name: "steady", Factory: Factory(nil), Parallel: 1,
	})

	// Yank worker 1 once the sweep is moving.
	deadline := time.Now().Add(time.Minute)
	for coord.Stats().Granted == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close()

	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := coord.Results()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("point %d differs from single-process run (%d vs %d bytes)", i, len(got[i]), len(want[i]))
		}
	}
}

// TestClusterSIGKILL is the full chaos article: a real worker
// subprocess is SIGKILLed while holding a lease, the lease is
// reclaimed, a second real subprocess (plus local degradation)
// finishes the sweep, and the artifact is still byte-identical to a
// single-process run.
func TestClusterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short")
	}
	spec, job := simSpecSmall(t)
	want := sequentialBytes(t, job)

	// No local executor: the sweep can only finish through real worker
	// subprocesses, so the reclaim → reassign path MUST work.
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Spec:      spec,
		Points:    job.Points(),
		ShardSize: 2,
		LeaseTTL:  time.Second,
		Validate:  job.Validate,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go coord.Serve(ln)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- coord.Run(ctx) }()

	// The victim: a real OS process, computing slowly enough to be
	// mid-lease when the signal lands.
	victim := exec.Command(os.Args[0])
	victim.Env = append(os.Environ(),
		"HYVE_TEST_WORKER_CONNECT="+ln.Addr().String(),
		"HYVE_TEST_WORKER_CHAOS_MS=400")
	victim.Stderr = os.Stderr
	if err := victim.Start(); err != nil {
		t.Fatalf("starting victim worker: %v", err)
	}
	defer victim.Process.Kill()

	// Wait until it holds a lease, then SIGKILL — no goodbye, no
	// connection teardown beyond the kernel's.
	deadline := time.Now().Add(time.Minute)
	for coord.Stats().Granted == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if coord.Stats().Granted == 0 {
		t.Fatal("victim worker never took a lease")
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	victim.Wait()

	// A second, well-behaved real subprocess finishes the job.
	helper := exec.Command(os.Args[0])
	helper.Env = append(os.Environ(), "HYVE_TEST_WORKER_CONNECT="+ln.Addr().String())
	helper.Stderr = os.Stderr
	if err := helper.Start(); err != nil {
		t.Fatalf("starting helper worker: %v", err)
	}
	defer helper.Process.Kill()

	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := coord.Results()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("point %d differs from single-process run after SIGKILL chaos", i)
		}
	}
	if st := coord.Stats(); st.Reclaimed == 0 {
		t.Fatalf("victim's lease never reclaimed: %+v", st)
	}
}

// TestCheckClusterMatchesSequential: the distributed conformance sweep
// renders the identical report a sequential check.Run produces.
func TestCheckClusterMatchesSequential(t *testing.T) {
	opt := check.Options{Seed: 7, Points: 2}

	seq, err := check.Run(opt)
	if err != nil {
		t.Fatalf("check.Run: %v", err)
	}
	dist, err := RunCheckCluster(opt, 2)
	if err != nil {
		t.Fatalf("RunCheckCluster: %v", err)
	}

	var seqBuf, distBuf bytes.Buffer
	seq.WriteReport(&seqBuf)
	dist.WriteReport(&distBuf)
	if !bytes.Equal(seqBuf.Bytes(), distBuf.Bytes()) {
		t.Fatalf("reports differ:\nsequential:\n%s\ndistributed:\n%s", seqBuf.Bytes(), distBuf.Bytes())
	}
}

// TestCheckClusterZeroWorkers: the degradation path — no workers at
// all — still completes a distributed check sweep.
func TestCheckClusterZeroWorkers(t *testing.T) {
	sum, err := RunCheckCluster(check.Options{Seed: 7, Points: 1}, 0)
	if err != nil {
		t.Fatalf("RunCheckCluster: %v", err)
	}
	if sum.Points != 1 {
		t.Fatalf("merged %d points, want 1", sum.Points)
	}
}

// TestSpecValidation: impossible sweeps are refused before any lease.
func TestSpecValidation(t *testing.T) {
	if _, err := NewSimSpec(SimSpec{Datasets: []string{"YT"}, Algos: []string{"PR"}, Configs: []string{"graphr"}, SRAMMB: 2}); err == nil {
		t.Fatal("graphr has no canonical result document; spec must be refused")
	}
	if _, err := NewSimSpec(SimSpec{Datasets: []string{"NOPE"}, Algos: []string{"PR"}, Configs: []string{"hyve"}, SRAMMB: 2}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := NewCheckSpec(1, 0, 0); err == nil {
		t.Fatal("zero-point check spec accepted")
	}
	if _, err := Decode([]byte(`{"kind":"nope"}`), nil); err == nil {
		t.Fatal("unknown kind decoded")
	}
	if _, err := Decode([]byte(`{"kind":"sim","sim":{"datasets":["YT"],"algos":["PR"],"configs":["hyve"],"sram_mb":2},"extra":1}`), nil); err == nil {
		t.Fatal("unknown spec field decoded")
	}
}
