package dynamic

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
)

// RequestKind enumerates the §7.4.2 request types.
type RequestKind int

// Request kinds, with the paper's mix proportions in comments.
const (
	AddEdge      RequestKind = iota // 45%
	DeleteEdge                      // 45%
	AddVertex                       // 5%
	DeleteVertex                    // 5%
)

func (k RequestKind) String() string {
	switch k {
	case AddEdge:
		return "add-edge"
	case DeleteEdge:
		return "delete-edge"
	case AddVertex:
		return "add-vertex"
	case DeleteVertex:
		return "delete-vertex"
	default:
		return fmt.Sprintf("RequestKind(%d)", int(k))
	}
}

// Request is one dynamic-graph operation.
type Request struct {
	Kind   RequestKind
	Edge   graph.Edge
	Vertex graph.VertexID
}

// Mix is a request-kind distribution in percent.
type Mix struct {
	AddEdgePct, DeleteEdgePct, AddVertexPct, DeleteVertexPct int
}

// PaperMix is the §7.4.2 distribution: 45/45/5/5.
var PaperMix = Mix{AddEdgePct: 45, DeleteEdgePct: 45, AddVertexPct: 5, DeleteVertexPct: 5}

// Validate checks the mix sums to 100.
func (m Mix) Validate() error {
	if m.AddEdgePct < 0 || m.DeleteEdgePct < 0 || m.AddVertexPct < 0 || m.DeleteVertexPct < 0 {
		return fmt.Errorf("dynamic: negative mix %+v", m)
	}
	if sum := m.AddEdgePct + m.DeleteEdgePct + m.AddVertexPct + m.DeleteVertexPct; sum != 100 {
		return fmt.Errorf("dynamic: mix sums to %d, want 100", sum)
	}
	return nil
}

// GenerateRequests builds a deterministic request stream of length n
// against graph g: deletes always reference an edge that is live at that
// point in the stream, adds draw fresh endpoints, vertex operations
// reference the evolving vertex space. Both stores receive the identical
// stream, which is what makes the Fig. 20 comparison fair. If the
// live-edge pool drains, a delete roll falls back to another enabled
// request kind; a mix that can only delete edges returns an error once
// the pool is empty rather than spinning.
func GenerateRequests(g *graph.Graph, n int, mix Mix, seed uint64) ([]Request, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	if g.NumVertices == 0 {
		return nil, graph.ErrEmptyGraph
	}
	rng := graph.NewRNG(seed)
	live := append([]graph.Edge(nil), g.Edges...)
	numVertices := g.NumVertices
	out := make([]Request, 0, n)
	for len(out) < n {
		roll := rng.Intn(100)
		var kind RequestKind
		switch {
		case roll < mix.AddEdgePct:
			kind = AddEdge
		case roll < mix.AddEdgePct+mix.DeleteEdgePct:
			kind = DeleteEdge
		case roll < mix.AddEdgePct+mix.DeleteEdgePct+mix.AddVertexPct:
			kind = AddVertex
		default:
			kind = DeleteVertex
		}
		if kind == DeleteEdge && len(live) == 0 {
			// The live pool is drained: every deletable edge is gone.
			// Fall back to another enabled kind so the stream keeps its
			// length; a delete-only mix has nothing to fall back to.
			switch {
			case mix.AddEdgePct > 0:
				kind = AddEdge
			case mix.AddVertexPct > 0:
				kind = AddVertex
			case mix.DeleteVertexPct > 0:
				kind = DeleteVertex
			default:
				return nil, fmt.Errorf("dynamic: mix %+v deletes edges only and the live-edge pool drained after %d requests", mix, len(out))
			}
		}
		switch kind {
		case AddEdge:
			e := graph.Edge{
				Src: graph.VertexID(rng.Intn(numVertices)),
				Dst: graph.VertexID(rng.Intn(numVertices)),
			}
			live = append(live, e)
			out = append(out, Request{Kind: AddEdge, Edge: e})
		case DeleteEdge:
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, Request{Kind: DeleteEdge, Edge: e})
		case AddVertex:
			out = append(out, Request{Kind: AddVertex})
			numVertices++
		default:
			out = append(out, Request{Kind: DeleteVertex, Vertex: graph.VertexID(rng.Intn(numVertices))})
		}
	}
	return out, nil
}

// Apply dispatches one request to a store and returns the changed-edge
// count (vertex operations count as one change, matching the paper's
// "adding/deleting vertices also results in changing edges" accounting).
func Apply(s Store, r Request) (int, error) {
	switch r.Kind {
	case AddEdge:
		return s.AddEdge(r.Edge)
	case DeleteEdge:
		return s.DeleteEdge(r.Edge)
	case AddVertex:
		_, n, err := s.AddVertex()
		return n, err
	case DeleteVertex:
		return s.DeleteVertex(r.Vertex)
	default:
		return 0, fmt.Errorf("dynamic: unknown request kind %v", r.Kind)
	}
}

// Throughput is the outcome of replaying a request stream.
type Throughput struct {
	Requests     int
	EdgesChanged int64
}

// Replay applies the full stream to s and counts what changed: the host
// benchmarks' view of a store (BenchmarkDynamicReplay*). The aggregate
// outcome is reported to the process-global recorder after the loop.
func Replay(s Store, reqs []Request) (Throughput, error) {
	var changed int64
	for _, r := range reqs {
		n, err := Apply(s, r)
		if err != nil {
			return Throughput{}, err
		}
		changed += int64(n)
	}
	t := Throughput{Requests: len(reqs), EdgesChanged: changed}
	rec := obs.Default()
	rec.Count("dynamic.requests", int64(t.Requests))
	rec.Count("dynamic.edges.changed", t.EdgesChanged)
	rec.Count("dynamic.replays", 1)
	return t, nil
}
