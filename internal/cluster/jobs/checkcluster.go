package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/check"
	"repro/internal/cluster"
)

// RunCheckCluster runs a conformance sweep through the cluster
// machinery with workers in-process worker connections (over net.Pipe),
// then merges the point documents into the same Summary a sequential
// check.Run would produce. It requires an explicit point count —
// distribution needs a dense index space, so duration-bounded sweeps
// stay sequential. With workers == 0 the coordinator's local executor
// runs the whole sweep itself: the degradation path, exercised
// deliberately.
func RunCheckCluster(opt check.Options, workers int) (*check.Summary, error) {
	if opt.Points <= 0 {
		return nil, errors.New("jobs: a distributed check sweep needs an explicit -points count")
	}
	if workers < 0 {
		return nil, fmt.Errorf("jobs: negative worker count %d", workers)
	}
	out := opt.Out
	if out == nil {
		out = io.Discard
	}
	spec, err := NewCheckSpec(opt.Seed, opt.Points, opt.PointTimeout)
	if err != nil {
		return nil, err
	}
	job, err := Decode(spec, ExecOptions{})
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Spec:      spec,
		Points:    opt.Points,
		ShardSize: 1, // check points are heavyweight; lease them singly
		Validate:  job.Validate,
		Local:     job,
	})
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	runErr := make(chan error, 1)
	go func() { runErr <- coord.Run(ctx) }()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cSide, wSide := net.Pipe()
		go coord.ServeConn(cSide)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cluster.RunWorker(ctx, wSide, cluster.WorkerConfig{
				Name:    fmt.Sprintf("inproc%d", i),
				Factory: Factory(ExecOptions{}),
			})
		}(w)
	}
	if err := <-runErr; err != nil {
		return nil, err
	}
	wg.Wait()

	sum := check.NewSummary()
	for i, payload := range coord.Results() {
		doc, err := check.DecodePointDoc(payload)
		if err != nil {
			return nil, fmt.Errorf("jobs: merged point %d: %w", i, err)
		}
		if err := sum.AddDoc(doc); err != nil {
			return nil, err
		}
		switch {
		case doc.TimedOut:
			fmt.Fprintf(out, "TIMEOUT seed=%d abandoned after %v\n", doc.Seed, opt.PointTimeout)
		case len(doc.Failures) > 0:
			for _, f := range doc.Failures {
				fmt.Fprintf(out, "FAIL %-22s %s\n     %s\n", f.Invariant, doc.Point, f.Err)
			}
		case opt.Verbose:
			fmt.Fprintf(out, "ok   %s\n", doc.Point)
		}
	}
	return sum, nil
}
