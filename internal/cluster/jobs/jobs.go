// Package jobs binds the cluster machinery to the repo's two real
// sweeps: simulation sweeps (the hyve-sim cross product, one canonical
// hyve/result/v1 document per point) and conformance sweeps (hyve-check
// seeds, one hyve/checkpoint/v1 document per point). A Spec is the
// self-describing envelope the coordinator ships to workers at
// handshake; both sides build the identical Job from it, which is what
// makes a worker's Execute and the coordinator's Validate agree.
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/point"
)

// Spec is the wire envelope for a distributable sweep.
type Spec struct {
	Kind  string     `json:"kind"` // "sim" or "check"
	Sim   *SimSpec   `json:"sim,omitempty"`
	Check *CheckSpec `json:"check,omitempty"`
}

// SimSpec describes a simulation sweep: the same dataset-major cross
// product hyve-sim runs (point.Sweep fixes the index order).
type SimSpec = point.Sweep

// CheckSpec describes a conformance sweep: seeds Seed … Seed+Points-1.
type CheckSpec struct {
	Seed           uint64 `json:"seed"`
	Points         int    `json:"points"`
	PointTimeoutMS int64  `json:"point_timeout_ms,omitempty"`
}

// ExecOptions carries the local execution environment a spec does not
// describe. Prepared datasets are the process's graph.SetPreparedDir.
type ExecOptions struct {
	// Cache is the scheduler sim points are submitted through (nil = a
	// private in-memory scheduler per job). Check points run without one.
	Cache *cache.Scheduler
}

// NewSimSpec encodes a simulation sweep spec, validating every point —
// a coordinator should refuse an impossible sweep before leasing
// anything. Only core configurations parse: the analytic graphr/cpu
// baselines have no canonical result document, so they cannot ride a
// distributed sweep (exactly the hyve-sim -result rule).
func NewSimSpec(sw SimSpec) ([]byte, error) {
	if _, err := sw.Specs(); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return encodeSpec(Spec{Kind: "sim", Sim: &sw})
}

// NewCheckSpec encodes a conformance sweep spec.
func NewCheckSpec(seed uint64, points int, pointTimeout time.Duration) ([]byte, error) {
	if points <= 0 {
		return nil, errors.New("jobs: a check sweep needs an explicit positive point count")
	}
	return encodeSpec(Spec{Kind: "check", Check: &CheckSpec{
		Seed: seed, Points: points, PointTimeoutMS: pointTimeout.Milliseconds(),
	}})
}

func encodeSpec(s Spec) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding spec: %w", err)
	}
	return b, nil
}

// Decode builds the Job a spec describes. Both sides of the wire call
// it: workers through Factory, coordinators directly (for Validate and
// local degradation).
func Decode(spec []byte, opt ExecOptions) (cluster.Job, error) {
	dec := json.NewDecoder(bytes.NewReader(spec))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("jobs: decoding spec: %w", err)
	}
	switch s.Kind {
	case "sim":
		if s.Sim == nil {
			return nil, errors.New("jobs: sim spec missing sim body")
		}
		if _, err := s.Sim.Specs(); err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		sched := opt.Cache
		if sched == nil {
			sched = cache.New(cache.Config{})
		}
		return &simJob{sweep: *s.Sim, sched: sched}, nil
	case "check":
		if s.Check == nil {
			return nil, errors.New("jobs: check spec missing check body")
		}
		if s.Check.Points <= 0 {
			return nil, errors.New("jobs: check spec names no points")
		}
		return &checkJob{spec: *s.Check}, nil
	default:
		return nil, fmt.Errorf("jobs: unknown spec kind %q", s.Kind)
	}
}

// Factory adapts Decode into the worker-side cluster.JobFactory.
func Factory(opt ExecOptions) cluster.JobFactory {
	return func(spec []byte) (cluster.Job, error) { return Decode(spec, opt) }
}

// simJob executes simulation points through the shared scheduler and
// returns canonical hyve/result/v1 documents.
type simJob struct {
	sweep SimSpec
	sched *cache.Scheduler
}

// Points implements cluster.Job.
func (j *simJob) Points() int { return j.sweep.Len() }

// Execute implements cluster.Job.
func (j *simJob) Execute(ctx context.Context, i int) ([]byte, error) {
	spec, err := j.sweep.At(i)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return point.Run(ctx, j.sched, spec)
}

// Validate implements cluster.Job: the payload must be a well-formed
// canonical result document.
func (j *simJob) Validate(i int, payload []byte) error {
	if _, err := j.sweep.At(i); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	_, err := cache.DecodeResult(payload)
	return err
}

// checkJob executes conformance points and returns canonical
// hyve/checkpoint/v1 documents.
type checkJob struct {
	spec CheckSpec
}

// Points implements cluster.Job.
func (j *checkJob) Points() int { return j.spec.Points }

// Execute implements cluster.Job.
func (j *checkJob) Execute(ctx context.Context, i int) ([]byte, error) {
	if i < 0 || i >= j.spec.Points {
		return nil, fmt.Errorf("jobs: check point %d outside sweep of %d", i, j.spec.Points)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return check.RunPointDoc(j.spec.Seed+uint64(i),
		time.Duration(j.spec.PointTimeoutMS)*time.Millisecond)
}

// Validate implements cluster.Job: the payload must decode as a point
// doc carrying exactly the seed index i maps to.
func (j *checkJob) Validate(i int, payload []byte) error {
	if i < 0 || i >= j.spec.Points {
		return fmt.Errorf("jobs: check point %d outside sweep of %d", i, j.spec.Points)
	}
	doc, err := check.DecodePointDoc(payload)
	if err != nil {
		return err
	}
	if want := j.spec.Seed + uint64(i); doc.Seed != want {
		return fmt.Errorf("jobs: check point %d carries seed %d, want %d", i, doc.Seed, want)
	}
	return nil
}
