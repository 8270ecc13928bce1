package cache

import (
	"container/list"
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config tunes a Scheduler.
type Config struct {
	// Dir, when non-empty, backs the scheduler with the on-disk
	// content-addressed result store rooted there, so identical points
	// are reused across processes, not just within one.
	Dir string
}

// resultEntries bounds the in-memory result LRU (entries across all
// shards; an entry, result and document, is ~1.5 KB).
const resultEntries = 4096

// Stats counts what the scheduler did. Executed counts completed
// simulations; Errors counts submissions whose execution failed (error
// outcomes are never cached — a failing point re-executes every time,
// deliberately, so probes of error paths keep probing). Bypassed counts
// submissions that skipped the cache entirely (an Off scheduler, or a
// point that could not be digested).
type Stats struct {
	Executed  uint64
	MemHits   uint64
	DiskHits  uint64
	Coalesced uint64
	Bypassed  uint64
	Errors    uint64
}

// Scheduler is the unified submission point for simulations: every
// consumer asks it to Simulate, and identical points — equal canonical
// digests — execute exactly once. Concurrent submissions of the same
// point coalesce onto one execution; completed results live in a
// sharded in-memory LRU and, when configured, the on-disk store. The
// scheduler keeps results only: the machine that executed a point, and
// with it the point's graph, is garbage once the result is stored.
//
// The scheduler owns a cached point's bytes: each LRU entry holds the
// result together with its canonical document (EncodeResult), encoded
// once when the result enters the cache from an execution or a disk
// hit, and the disk store writes those same bytes. Simulate hands out
// the result, Document the document.
//
// Cached results and documents are shared: callers must treat a
// *core.Result or a document obtained from the scheduler as read-only
// (the experiment race tests run under -race, which turns any violation
// into a reported data race).
//
// A nil *Scheduler is valid and means "no cache" everywhere: it executes
// every submission, so call sites can thread an optional scheduler
// without nil checks. Consumers never substitute a default for nil;
// each command's main builds the scheduler it wants.
type Scheduler struct {
	off     bool
	disk    *store
	results *lruShards

	// run resolves one missed digest (disk, then execution). It is
	// runPoint in production; tests substitute a gated executor to
	// exercise cancellation without a genuinely slow simulation.
	run func(ctx context.Context, d Digest, cfg core.Config, w core.Workload) (*entry, error)

	mu       sync.Mutex
	inflight map[Digest]*flight

	executed, memHits, diskHits, coalesced, bypassed, errors atomic.Uint64
}

// entry is one cached point: its result and the result's canonical
// document. docErr keeps an encoding failure, so the point's result
// stays cached and only a caller that wants the document sees the error.
type entry struct {
	res    *core.Result
	doc    []byte
	docErr error
}

// newEntry encodes r's document, the one encoding a cached point gets.
func newEntry(r *core.Result) *entry {
	doc, err := EncodeResult(r)
	return &entry{res: r, doc: doc, docErr: err}
}

type flight struct {
	done chan struct{}
	e    *entry
	err  error
}

// New builds a scheduler.
func New(c Config) *Scheduler {
	s := &Scheduler{
		results:  newLRUShards(resultEntries),
		inflight: make(map[Digest]*flight),
	}
	if c.Dir != "" {
		s.disk = newStore(c.Dir)
	}
	s.run = s.runPoint
	return s
}

// Off returns a scheduler that executes every submission and caches
// nothing, like nil; unlike nil, it counts each one as bypassed in Stats
// and does no cache work at all, so Document does not digest under it.
func Off() *Scheduler { return &Scheduler{off: true} }

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Executed:  s.executed.Load(),
		MemHits:   s.memHits.Load(),
		DiskHits:  s.diskHits.Load(),
		Coalesced: s.coalesced.Load(),
		Bypassed:  s.bypassed.Load(),
		Errors:    s.errors.Load(),
	}
}

// Metric names the scheduler emits through the process-global
// Recorder, so /metrics shows cache behavior without code changes in
// consumers. Counters mirror Stats ("cache.misses" counts executions);
// the two histograms are log-bucketed latencies.
const (
	MetricHits      = "cache.hits"
	MetricMisses    = "cache.misses"
	MetricDiskHits  = "cache.disk.hits"
	MetricCoalesced = "cache.coalesced"
	MetricErrors    = "cache.errors"
	MetricBypassed  = "cache.bypassed"
	MetricLookupSec = "cache.lookup.seconds"
	MetricExecSec   = "cache.exec.seconds"
)

// RegisterMetrics announces every scheduler counter to rec at value
// zero, so a freshly-scraped /metrics shows the cache series before the
// first submission (and dashboards never see a missing-series gap).
func RegisterMetrics(rec obs.Recorder) {
	for _, name := range []string{
		MetricHits, MetricMisses, MetricDiskHits,
		MetricCoalesced, MetricErrors, MetricBypassed,
	} {
		rec.Count(name, 0)
	}
}

// Simulate submits one point. On a miss the point executes on a freshly
// assembled Machine and the result is stored; on a hit the cached
// result — byte-identical to a fresh execution by the cache-hit-identity
// invariant — returns without simulating.
func (s *Scheduler) Simulate(cfg core.Config, w core.Workload) (*core.Result, error) {
	return s.SimulateCtx(context.Background(), cfg, w)
}

// SimulateCtx is Simulate under a caller context: span tracing nests
// the executed point under the caller's span (run → experiment →
// point), and cancellation releases the caller. A cancelled submission
// returns ctx.Err() promptly — whether it was coalesced behind another
// caller's execution or started the execution itself — but the winning
// execution is deliberately detached from the caller's cancellation:
// once started, a simulation runs to completion and its result is
// cached, so a cached result is never half-made and the work already
// sunk into the point is never thrown away.
//
// Every submission also reports to the process-global obs Recorder:
// hit/miss/coalesce/error counters, a digest+lookup latency histogram,
// and an execution latency histogram — so a live /metrics scrape sees
// cache behavior that Stats() only reveals to code holding the
// scheduler.
func (s *Scheduler) SimulateCtx(ctx context.Context, cfg core.Config, w core.Workload) (*core.Result, error) {
	if s == nil || s.off {
		s.bypass()
		return core.Simulate(cfg, w)
	}
	start := time.Now()
	d, err := PointDigest(cfg, w)
	if err != nil {
		// An undigestable point (nil graph/program) still gets core's
		// real validation error from a direct execution.
		s.bypass()
		return core.Simulate(cfg, w)
	}
	e, err := s.resolve(ctx, start, d, cfg, w)
	if err != nil {
		return nil, err
	}
	return e.res, nil
}

// Document is SimulateCtx for a caller that answers in bytes: it returns
// the point's canonical document (EncodeResult) and the digest it was
// looked up by, from one digest of the point. A hit returns the stored
// document itself, the same slice on every hit, so nothing is encoded
// again; callers must not modify it.
//
// A nil scheduler has no cache but still names the point: it digests
// it, then executes and encodes. Off does no cache work at all, the
// digest included: it executes, encodes, and returns a zero digest, so a
// caller that only wants bytes (hyve-sim) never pays for a first
// ContentDigest of the graph. A point that cannot be digested executes
// the same way, so it gets core's validation error.
func (s *Scheduler) Document(ctx context.Context, cfg core.Config, w core.Workload) ([]byte, Digest, error) {
	if s != nil && s.off {
		s.bypass()
		doc, err := simulateDoc(cfg, w)
		return doc, Digest{}, err
	}
	start := time.Now()
	d, err := PointDigest(cfg, w)
	if err != nil {
		s.bypass()
		doc, err := simulateDoc(cfg, w)
		return doc, Digest{}, err
	}
	if s == nil {
		doc, err := simulateDoc(cfg, w)
		return doc, d, err
	}
	e, err := s.resolve(ctx, start, d, cfg, w)
	if err != nil {
		return nil, d, err
	}
	return e.doc, d, e.docErr
}

// simulateDoc executes a point outside the cache and encodes its result.
func simulateDoc(cfg core.Config, w core.Workload) ([]byte, error) {
	r, err := core.Simulate(cfg, w)
	if err != nil {
		return nil, err
	}
	return EncodeResult(r)
}

// bypass counts a submission that skips the cache (none for nil).
func (s *Scheduler) bypass() {
	if s != nil {
		s.bypassed.Add(1)
		obs.Default().Count(MetricBypassed, 1)
	}
}

// resolve finds digest d's cache entry: the LRU, else one coalesced disk
// read or execution. The lookup latency counts from start, before the
// point was digested.
func (s *Scheduler) resolve(ctx context.Context, start time.Time, d Digest, cfg core.Config, w core.Workload) (*entry, error) {
	rec := obs.Default()
	if v, ok := s.results.get(d); ok {
		s.memHits.Add(1)
		rec.Count(MetricHits, 1)
		obs.ObserveSince(rec, MetricLookupSec, start)
		obs.Flight().Record("cache.hit", d.String())
		return v.(*entry), nil
	}
	obs.ObserveSince(rec, MetricLookupSec, start)
	if err := ctx.Err(); err != nil {
		// Already-cancelled submissions still get a free hit above, but
		// never start (or wait behind) an execution.
		return nil, err
	}

	// Coalesce concurrent submissions of the same digest onto one
	// execution; followers wait for the leader's outcome — or their own
	// cancellation, whichever comes first. A waiter abandoning a wedged
	// execution does not abandon the execution itself.
	s.mu.Lock()
	if f, ok := s.inflight[d]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		rec.Count(MetricCoalesced, 1)
		select {
		case <-f.done:
			return f.e, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[d] = f
	s.mu.Unlock()

	// The execution runs detached (context.WithoutCancel keeps the span
	// parent riding in ctx but severs cancellation), so the leader's
	// caller can give up at its deadline while the point still finishes
	// and lands in the cache for the next submission.
	go func() {
		f.e, f.err = s.run(context.WithoutCancel(ctx), d, cfg, w)
		s.mu.Lock()
		delete(s.inflight, d)
		s.mu.Unlock()
		close(f.done)
	}()
	select {
	case <-f.done:
		return f.e, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runPoint resolves one digest the slow way: disk, then execution.
// Either way the result enters the cache with its document, encoded
// here once.
func (s *Scheduler) runPoint(ctx context.Context, d Digest, cfg core.Config, w core.Workload) (*entry, error) {
	rec := obs.Default()
	if s.disk != nil {
		if r, ok := s.disk.get(d); ok {
			s.diskHits.Add(1)
			rec.Count(MetricDiskHits, 1)
			obs.Flight().Record("cache.disk.hit", d.String())
			e := newEntry(r)
			s.results.put(d, e)
			return e, nil
		}
	}
	obs.Flight().Record("cache.miss", d.String(), "config", cfg.Name, "dataset", w.DatasetName)
	// The point span: id derived from the digest alone, so the same
	// point carries the same span id in every run's trace, nested under
	// the caller's experiment span when one rides in ctx.
	_, sp := obs.StartSpanWithID(ctx, "point "+d.String(), spanIDFor(d),
		"digest", d.String(), "config", cfg.Name, "dataset", w.DatasetName)
	m, err := core.NewMachine(cfg, w)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		s.errors.Add(1)
		rec.Count(MetricErrors, 1)
		obs.Flight().Record("cache.error", d.String(), "err", err.Error())
		return nil, err
	}
	exec := time.Now()
	r, err := m.SimulateTraced(sp)
	obs.ObserveSince(rec, MetricExecSec, exec)
	sp.End()
	if err != nil {
		s.errors.Add(1)
		rec.Count(MetricErrors, 1)
		obs.Flight().Record("cache.error", d.String(), "err", err.Error())
		return nil, err
	}
	s.executed.Add(1)
	rec.Count(MetricMisses, 1)
	e := newEntry(r)
	s.results.put(d, e)
	if s.disk != nil && e.docErr == nil {
		// Best-effort: a failed put only costs a future re-execution.
		_ = s.disk.put(d, e.doc)
	}
	return e, nil
}

// spanIDFor derives the deterministic span id of a point from the
// leading bytes of its canonical digest.
func spanIDFor(d Digest) uint64 {
	return binary.BigEndian.Uint64(d[:8])
}

// --- sharded LRU --------------------------------------------------------

const numShards = 16

// lruShards is a digest-keyed LRU split across fixed shards (first
// digest byte), bounding lock contention under the parallel experiment
// pool without a global lock.
type lruShards struct {
	cap    int // per shard
	shards [numShards]lruShard
}

type lruShard struct {
	mu sync.Mutex
	m  map[Digest]*list.Element
	ll list.List // front = most recent; values are *lruEntry
}

type lruEntry struct {
	key Digest
	val any
}

// newLRUShards splits capacity evenly across the shards, rounding up.
func newLRUShards(capacity int) *lruShards {
	s := &lruShards{cap: (capacity + numShards - 1) / numShards}
	for i := range s.shards {
		s.shards[i].m = make(map[Digest]*list.Element)
	}
	return s
}

func (s *lruShards) shard(d Digest) *lruShard { return &s.shards[d[0]%numShards] }

func (s *lruShards) get(d Digest) (any, bool) {
	sh := s.shard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[d]; ok {
		sh.ll.MoveToFront(el)
		return el.Value.(*lruEntry).val, true
	}
	return nil, false
}

// put adds (d, v), evicting from the back past the shard capacity.
func (s *lruShards) put(d Digest, v any) {
	sh := s.shard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[d]; ok {
		el.Value.(*lruEntry).val = v
		sh.ll.MoveToFront(el)
		return
	}
	sh.m[d] = sh.ll.PushFront(&lruEntry{key: d, val: v})
	for sh.ll.Len() > s.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.m, back.Value.(*lruEntry).key)
	}
}
