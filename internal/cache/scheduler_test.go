package cache

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
)

func TestSchedulerMemoryAndDiskHits(t *testing.T) {
	cfg, w := testPoint(t)
	dir := t.TempDir()

	s := New(Config{Dir: dir})
	r1, err := s.Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("memory hit returned a different result instance")
	}
	if st := s.Stats(); st.Executed != 1 || st.MemHits != 1 || st.DiskHits != 0 {
		t.Errorf("stats after two submissions: %+v", st)
	}

	// A fresh scheduler over the same directory can only find the result
	// on disk.
	s2 := New(Config{Dir: dir})
	if _, err := s2.Simulate(cfg, w); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Executed != 0 || st.DiskHits != 1 {
		t.Errorf("fresh-scheduler stats: %+v", st)
	}
	// The disk hit was promoted into memory.
	if _, err := s2.Simulate(cfg, w); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Errorf("promotion stats: %+v", st)
	}
}

// TestSchedulerSeparatesProgramParameters submits two PageRanks that
// differ only in their stopping rule through one scheduler; each must
// get its own result, not the first one's cache entry.
func TestSchedulerSeparatesProgramParameters(t *testing.T) {
	cfg, w := testPoint(t)
	s := New(Config{})
	var direct [][]byte
	for _, p := range []*algo.PageRank{algo.NewPageRank(), algo.NewPageRankConverge(1e-6)} {
		w.Program = p
		want, err := core.Simulate(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := EncodeResult(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Simulate(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := EncodeResult(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("PR (iterations %d, epsilon %g): scheduler result differs from a direct core.Simulate",
				p.Iterations, p.Epsilon)
		}
		direct = append(direct, wantBytes)
	}
	if bytes.Equal(direct[0], direct[1]) {
		t.Fatal("the two programs produce equal results; the test cannot tell them apart")
	}
}

// TestSchedulerCoalesces hammers one point from many goroutines through
// a memory-only scheduler and requires exactly one execution; run under
// -race this is also the concurrency soundness test for the LRU shards
// and the inflight table.
func TestSchedulerCoalesces(t *testing.T) {
	cfg, w := testPoint(t)
	s := New(Config{})
	const workers = 16
	results := make([]*core.Result, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Simulate(cfg, w)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Executed != 1 {
		t.Errorf("%d executions for one point under %d concurrent submissions (%+v)",
			st.Executed, workers, st)
	}
	if st.MemHits+st.Coalesced != workers-1 {
		t.Errorf("hits+coalesced = %d, want %d: %+v", st.MemHits+st.Coalesced, workers-1, st)
	}
	for i, r := range results {
		if r == nil || r != results[0] {
			t.Fatalf("worker %d got a different result instance", i)
		}
	}
}

func TestSchedulerNilAndOff(t *testing.T) {
	cfg, w := testPoint(t)
	var nilSched *Scheduler
	if _, err := nilSched.Simulate(cfg, w); err != nil {
		t.Fatalf("nil scheduler: %v", err)
	}
	if st := nilSched.Stats(); st != (Stats{}) {
		t.Errorf("nil scheduler stats: %+v", st)
	}

	off := Off()
	if _, err := off.Simulate(cfg, w); err != nil {
		t.Fatal(err)
	}
	if _, err := off.Simulate(cfg, w); err != nil {
		t.Fatal(err)
	}
	if st := off.Stats(); st.Bypassed != 2 || st.Executed != 0 || st.MemHits != 0 {
		t.Errorf("off scheduler cached something: %+v", st)
	}
}

// TestSchedulerNeverCachesErrors: a failing point re-executes on every
// submission, so probes of error paths (the reliability experiment's
// bank-loss probe) keep observing the failure.
func TestSchedulerNeverCachesErrors(t *testing.T) {
	cfg, w := testPoint(t)
	cfg.NumPUs = 0 // fails validation inside the simulator
	s := New(Config{Dir: t.TempDir()})
	for i := 0; i < 2; i++ {
		if _, err := s.Simulate(cfg, w); err == nil {
			t.Fatal("invalid config simulated successfully")
		}
	}
	if st := s.Stats(); st.Errors != 2 || st.Executed != 0 || st.MemHits != 0 || st.DiskHits != 0 {
		t.Errorf("error outcomes were cached: %+v", st)
	}
}

func TestLRUEvicts(t *testing.T) {
	// Capacity 16 spreads to one entry per shard, so two digests in one
	// shard evict each other; digests differing only past byte 0 stay in
	// the same shard.
	s := newLRUShards(16)
	var a, b Digest
	a[1], b[1] = 1, 2
	s.put(a, "a")
	if v, ok := s.get(a); !ok || v != "a" {
		t.Fatal("inserted entry missing")
	}
	s.put(b, "b")
	if _, ok := s.get(a); ok {
		t.Error("capacity-1 shard kept both entries")
	}
	if v, ok := s.get(b); !ok || v != "b" {
		t.Error("most recent entry evicted")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	s := newLRUShards(32) // two per shard
	var a, b, c Digest
	a[1], b[1], c[1] = 1, 2, 3
	s.put(a, "a")
	s.put(b, "b")
	s.get(a) // a is now more recent than b
	s.put(c, "c")
	if _, ok := s.get(b); ok {
		t.Error("least-recent entry survived")
	}
	for _, d := range []Digest{a, c} {
		if _, ok := s.get(d); !ok {
			t.Errorf("recent entry %x evicted", d[1])
		}
	}
}

// waitUntil polls cond for up to five seconds — long enough for any CI
// scheduler hiccup, short enough that a genuine hang fails fast.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSimulateCtxCancellation pins the contract ISSUE 8 fixed: a
// cancelled submission — coalesced waiter or execution leader — returns
// ctx.Err() promptly, while the winning execution runs to completion in
// the background and lands in the cache, never half-made.
func TestSimulateCtxCancellation(t *testing.T) {
	cfg, w := testPoint(t)
	s := New(Config{})

	// Gate the executor so the point is "wedged" until we release it.
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	realRun := s.run
	s.run = func(ctx context.Context, d Digest, c core.Config, wl core.Workload) (*entry, error) {
		started <- struct{}{}
		<-block
		return realRun(ctx, d, c, wl)
	}

	// Leader: starts the execution under a cancellable context.
	lctx, lcancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.SimulateCtx(lctx, cfg, w)
		leaderErr <- err
	}()
	<-started

	// Waiter: coalesces behind the wedged execution, then cancels. It
	// must come back with ctx.Err(), not block forever.
	wctx, wcancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := s.SimulateCtx(wctx, cfg, w)
		waiterErr <- err
	}()
	waitUntil(t, "waiter to coalesce", func() bool { return s.Stats().Coalesced == 1 })
	wcancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked behind the wedged execution")
	}

	// The leader's caller gives up too; the execution must keep running.
	lcancel()
	select {
	case err := <-leaderErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled leader still blocked on its own execution")
	}
	if got := s.Stats().Executed; got != 0 {
		t.Fatalf("execution completed before it was released (executed=%d)", got)
	}

	// Release the execution: it completes detached and caches its result.
	close(block)
	waitUntil(t, "detached execution to complete", func() bool { return s.Stats().Executed == 1 })
	r, err := s.Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("nil result from cached point")
	}
	st := s.Stats()
	if st.Executed != 1 || st.MemHits != 1 {
		t.Errorf("post-cancellation submission should hit the cache made by the detached execution: %+v", st)
	}

	// An already-cancelled context never starts or waits on an execution
	// for an uncached point, but still gets free cache hits.
	if _, err := s.SimulateCtx(wctx, cfg, w); err != nil {
		t.Errorf("cache hit under a cancelled context should succeed, got %v", err)
	}
	cfg2 := cfg
	cfg2.NumPUs *= 2
	if _, err := s.SimulateCtx(wctx, cfg2, w); !errors.Is(err, context.Canceled) {
		t.Errorf("uncached point under a cancelled context returned %v, want context.Canceled", err)
	}
}

// TestDocumentEncodedOnce pins the scheduler as the owner of a point's
// bytes. Every way a document leaves it equals EncodeResult of a direct
// core.Simulate: an execution, a memory hit and a disk hit on a fresh
// scheduler. Two hits return the same stored slice, so a hit encodes
// nothing. The digest is the lookup digest, also with no cache (nil),
// and zero under Off, which digests nothing.
func TestDocumentEncodedOnce(t *testing.T) {
	cfg, w := testPoint(t)
	direct, err := core.Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := mustDigest(t, cfg, w)
	ctx := context.Background()
	document := func(name string, s *Scheduler, digest Digest) []byte {
		t.Helper()
		doc, d, err := s.Document(ctx, cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(doc, want) {
			t.Errorf("%s: document differs from EncodeResult(core.Simulate(point))", name)
		}
		if d != digest {
			t.Errorf("%s: digest %s, want %s", name, d, digest)
		}
		return doc
	}

	dir := t.TempDir()
	s := New(Config{Dir: dir})
	document("execution", s, wantDigest)
	hit1 := document("first hit", s, wantDigest)
	hit2 := document("second hit", s, wantDigest)
	if &hit1[0] != &hit2[0] {
		t.Error("two hits of one digest returned different slices: the hit re-encoded")
	}
	// Simulate hits the same entry.
	if r, err := s.Simulate(cfg, w); err != nil || r == nil {
		t.Fatalf("Simulate after Document: %v, %v", r, err)
	}
	if st := s.Stats(); st.Executed != 1 || st.MemHits != 3 {
		t.Errorf("stats: %+v, want one execution and three memory hits", st)
	}

	fresh := New(Config{Dir: dir})
	disk := document("disk hit", fresh, wantDigest)
	if st := fresh.Stats(); st.DiskHits != 1 || st.Executed != 0 {
		t.Errorf("fresh scheduler stats: %+v, want one disk hit", st)
	}
	if again := document("promoted hit", fresh, wantDigest); &again[0] != &disk[0] {
		t.Error("a hit after the disk hit re-encoded the document")
	}

	var none *Scheduler
	document("nil scheduler", none, wantDigest)
	off := Off()
	document("off scheduler", off, Digest{})
	if st := off.Stats(); st.Bypassed != 1 {
		t.Errorf("off stats: %+v, want one bypass", st)
	}
}
