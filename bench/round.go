package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// roundDoc is what one round reports to the parent process.
type roundDoc struct {
	Round     int       `json:"round"`
	SetupS    float64   `json:"setup_s"`
	WallS     float64   `json:"wall_s"`     // timed region
	LatencyMS []float64 `json:"latency_ms"` // per op, in op order
	// Items is the SHA-256 of each checked op's output, in op order
	// ("" for unchecked or failed ops).
	Items      []string    `json:"items"`
	Failed     []int       `json:"failed"` // failing op indices
	Failures   []string    `json:"failures"`
	RSSMB      float64     `json:"rss_mb"`
	HeapLiveMB float64     `json:"heap_live_mb"`
	Cache      cache.Stats `json:"cache"` // change over the timed region
	ProbeS     float64     `json:"probe_s,omitempty"`
	Trace      *traceStats `json:"trace,omitempty"`
}

// maxFailureMessages caps the messages a round reports; every failure
// still counts.
const maxFailureMessages = 20

func (d *roundDoc) fail(i int, label, msg string) {
	d.Failed = append(d.Failed, i)
	if len(d.Failures) < maxFailureMessages {
		d.Failures = append(d.Failures, fmt.Sprintf("round %d op %d (%s): %s", d.Round, i, label, msg))
	}
}

// closedLoop runs fn for every index of order on workers goroutines;
// each worker starts its next op only when its previous one returned.
func closedLoop(workers int, order []int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				fn(order[k])
			}
		}()
	}
	wg.Wait()
}

// runRound sets up, runs every op of the plan once under a closed loop
// and checks the outputs. Set-up time counts from started, when the
// round's process was launched, so it includes process start. Traced,
// it records obs spans, reduces them to the round's traceStats and
// writes them to spans when that is non-nil; with probe, it also runs
// the stage probe after everything it measures.
func runRound(pl *plan, round int, started time.Time, traced, probe bool, spans io.Writer) (*roundDoc, error) {
	var buf *obs.TraceBuffer
	if traced {
		buf = obs.EnableTracing(spanCapacity)
		defer obs.DisableTracing()
	}
	ctx := context.Background()
	roundAttr := strconv.Itoa(round)
	n := len(pl.ops)
	doc := &roundDoc{Round: round, LatencyMS: make([]float64, n), Items: make([]string, n)}

	var r runner
	err := inSpan(ctx, "setup", func(ctx context.Context) (err error) {
		r, err = setup(ctx, pl, round)
		return err
	}, "round", roundAttr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	doc.SetupS = time.Since(started).Seconds()

	outs := make([][]byte, n)
	errs := make([]error, n)
	before := r.sched().Stats()
	start := time.Now()
	_ = inSpan(ctx, "timed", func(ctx context.Context) error {
		closedLoop(pl.workers, pl.order(round), func(i int) {
			begin := time.Now()
			errs[i] = inSpan(ctx, "op", func(ctx context.Context) (err error) {
				outs[i], err = r.op(ctx, i)
				return err
			}, "op", pl.ops[i].label)
			doc.LatencyMS[i] = float64(time.Since(begin).Nanoseconds()) / 1e6
		})
		return nil
	}, "round", roundAttr)
	doc.WallS = time.Since(start).Seconds()
	doc.Cache = statsDelta(r.sched().Stats(), before)
	// Memory is read before the checks, which load and run more than the
	// timed ops did.
	doc.RSSMB = maxRSSMB()
	doc.HeapLiveMB = heapLiveMB()

	for i, err := range errs {
		if err != nil {
			outs[i] = nil
			doc.fail(i, pl.ops[i].label, err.Error())
		}
	}
	fails := r.verify(outs)
	for i := range pl.ops {
		if msg, ok := fails[i]; ok {
			doc.fail(i, pl.ops[i].label, msg)
		} else if outs[i] != nil && pl.ops[i].check {
			sum := sha256.Sum256(outs[i])
			doc.Items[i] = hex.EncodeToString(sum[:])
		}
	}
	sort.Ints(doc.Failed)

	if probe {
		start = time.Now()
		if err := inSpan(ctx, "probe", func(ctx context.Context) error { return runProbe(ctx, pl) }, "round", roundAttr); err != nil {
			return nil, fmt.Errorf("stage probe: %w", err)
		}
		doc.ProbeS = time.Since(start).Seconds()
	}
	if buf == nil {
		return doc, nil
	}
	if d := buf.Dropped(); d > 0 {
		return nil, fmt.Errorf("trace ring overflowed: %d spans dropped (spanCapacity %d)", d, spanCapacity)
	}
	st := summarizeSpans(buf.Snapshot())
	doc.Trace = &st
	if spans != nil {
		if err := buf.WriteJSONL(spans); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

func statsDelta(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Executed:  a.Executed - b.Executed,
		MemHits:   a.MemHits - b.MemHits,
		DiskHits:  a.DiskHits - b.DiskHits,
		Coalesced: a.Coalesced - b.Coalesced,
		Bypassed:  a.Bypassed - b.Bypassed,
		Errors:    a.Errors - b.Errors,
	}
}

// maxRSSMB is the process's peak resident set so far, in MiB
// (getrusage ru_maxrss, which Linux reports in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapLiveMB is the heap still reachable after a full collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runProbe times every stage of a point on each of the plan's distinct
// points, one at a time, after the timed region. Per dataset it times
// generation, weight attachment and the clone + weights + content
// digest a weighted request costs; per point it times the four calls of
// the hyve-sim -result path under a probe.point span, then a side pass
// that repeats the partition build and the functional run those calls
// contain, on the same inputs.
func runProbe(ctx context.Context, pl *plan) error {
	for _, d := range datasetsOf(pl.probe) {
		var g *graph.Graph
		if err := inSpan(ctx, "graph.generate", func(context.Context) (err error) {
			g, err = d.Generate()
			return err
		}); err != nil {
			return err
		}
		_ = inSpan(ctx, "graph.weights", func(context.Context) error {
			graph.AttachUniformWeights(g, 8, d.Seed^0x5EED)
			return nil
		})
		loaded, err := d.Load()
		if err != nil {
			return err
		}
		_ = inSpan(ctx, "graph.clone_digest", func(context.Context) error {
			c := loaded.Clone()
			graph.AttachUniformWeights(c, 8, d.Seed^0x5EED)
			graph.ContentDigest(c)
			return nil
		})
	}
	for _, p := range pl.probe {
		var w core.Workload
		var m *core.Machine
		if err := inSpan(ctx, "probe.point", func(ctx context.Context) error {
			var err error
			if w, err = workloadFor(ctx, p); err != nil {
				return err
			}
			var res *core.Result
			if m, res, err = simulate(ctx, p.cfg(), w); err != nil {
				return err
			}
			_, err = encode(ctx, res)
			return err
		}, "point", p.label()); err != nil {
			return fmt.Errorf("%s: %w", p.label(), err)
		}
		if err := inSpan(ctx, "probe.side", func(ctx context.Context) error {
			if err := inSpan(ctx, "partition.build", func(context.Context) error {
				asg, err := partition.NewHashed(w.Graph.NumVertices, m.P())
				if err != nil {
					return err
				}
				_, err = partition.BuildParallel(w.Graph, asg, 0)
				return err
			}); err != nil {
				return err
			}
			return inSpan(ctx, "algo.run", func(ctx context.Context) error {
				fr, err := algo.Run(w.Program, w.Graph)
				if err != nil {
					return err
				}
				obs.SpanFromContext(ctx).SetAttr("edges", strconv.FormatInt(fr.EdgesProcessed, 10))
				return nil
			})
		}, "point", p.label()); err != nil {
			return fmt.Errorf("%s: %w", p.label(), err)
		}
	}
	return nil
}
