package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// PointDocSchema identifies the canonical conformance-point document —
// the payload a cluster worker returns for one check point. Like
// hyve/result/v1, the encoding is canonical (ordered struct fields, one
// trailing newline), so the same seed produces the same bytes on every
// correct worker and merged sweep artifacts are byte-identical to
// single-process runs.
const PointDocSchema = "hyve/checkpoint/v1"

// PointDoc is one conformance point's outcome in wire form.
type PointDoc struct {
	Schema string `json:"schema"`
	Seed   uint64 `json:"seed"`
	// Point is the human description ("" when the point timed out).
	Point string `json:"point,omitempty"`
	// Checks counts invariant runs at this point.
	Checks int `json:"checks"`
	// Invariants and Runs are parallel: the invariant registry's names
	// in order, and how many times each ran at this point (0 or 1). The
	// names pin the registry the worker ran against — a worker built
	// with a different invariant set cannot silently merge.
	Invariants []string          `json:"invariants"`
	Runs       []int             `json:"runs"`
	Failures   []PointDocFailure `json:"failures,omitempty"`
	// TimedOut marks a point abandoned at LimitMS.
	TimedOut bool  `json:"timed_out,omitempty"`
	LimitMS  int64 `json:"limit_ms,omitempty"`
}

// PointDocFailure is one invariant violation in wire form.
type PointDocFailure struct {
	Invariant string `json:"invariant"`
	Err       string `json:"err"`
}

// RunPointDoc runs seed's conformance point (under timeout, exactly as
// Run would) and encodes the outcome as a canonical PointDoc.
func RunPointDoc(seed uint64, timeout time.Duration) ([]byte, error) {
	invs := Invariants()
	doc := PointDoc{Schema: PointDocSchema, Seed: seed, Runs: make([]int, len(invs))}
	for _, inv := range invs {
		doc.Invariants = append(doc.Invariants, inv.Name)
	}
	res, err := runPointWithTimeout(seed, invs, timeout)
	if err != nil {
		return nil, err
	}
	if res == nil {
		doc.TimedOut = true
		doc.LimitMS = timeout.Milliseconds()
	} else {
		doc.Point = res.point
		doc.Checks = res.checks
		copy(doc.Runs, res.runs)
		for _, f := range res.failures {
			doc.Failures = append(doc.Failures, PointDocFailure{Invariant: f.Invariant, Err: f.Err.Error()})
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&doc); err != nil {
		return nil, fmt.Errorf("check: encoding point doc: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePointDoc parses a PointDoc strictly: wrong schema, unknown
// fields, or a Runs/Invariants length mismatch is an error.
func DecodePointDoc(data []byte) (*PointDoc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc PointDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("check: decoding point doc: %w", err)
	}
	if doc.Schema != PointDocSchema {
		return nil, fmt.Errorf("check: point doc schema %q, want %q", doc.Schema, PointDocSchema)
	}
	if len(doc.Runs) != len(doc.Invariants) {
		return nil, fmt.Errorf("check: point doc has %d runs for %d invariants", len(doc.Runs), len(doc.Invariants))
	}
	return &doc, nil
}

// NewSummary builds an empty Summary over the local invariant registry,
// ready for AddDoc to merge remote points into.
func NewSummary() *Summary {
	invs := Invariants()
	sum := &Summary{Invariants: make([]InvariantSummary, len(invs))}
	for i, inv := range invs {
		sum.Invariants[i] = InvariantSummary{Name: inv.Name, Tolerance: inv.Tolerance}
	}
	return sum
}

// AddDoc merges one remote point into the summary. The doc's invariant
// registry must match the local one name for name — a mismatch means
// the worker ran a different build, and its numbers cannot be trusted
// into this table.
func (s *Summary) AddDoc(doc *PointDoc) error {
	if len(doc.Invariants) != len(s.Invariants) {
		return fmt.Errorf("check: point doc has %d invariants, this build has %d", len(doc.Invariants), len(s.Invariants))
	}
	for i, name := range doc.Invariants {
		if s.Invariants[i].Name != name {
			return fmt.Errorf("check: point doc invariant %d is %q, this build has %q", i, name, s.Invariants[i].Name)
		}
	}
	if doc.TimedOut {
		s.TimedOut = append(s.TimedOut, TimedOutPoint{Seed: doc.Seed, Limit: time.Duration(doc.LimitMS) * time.Millisecond})
		return nil
	}
	s.Points++
	s.Checks += doc.Checks
	for i, r := range doc.Runs {
		s.Invariants[i].Runs += r
	}
	for _, f := range doc.Failures {
		for i := range s.Invariants {
			if s.Invariants[i].Name == f.Invariant {
				s.Invariants[i].Failures++
				break
			}
		}
		s.Failures = append(s.Failures, Failure{
			Invariant: f.Invariant, Seed: doc.Seed, Point: doc.Point,
			Err: fmt.Errorf("%s", f.Err),
		})
	}
	return nil
}
