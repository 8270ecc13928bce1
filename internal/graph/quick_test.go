package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Arbitrary graphs survive a v2 container round trip bit-exactly.
func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(rawEdges []uint32, weighted bool) bool {
		// Build a small graph from the raw words.
		maxV := 256
		g := &Graph{NumVertices: maxV}
		for i := 0; i+1 < len(rawEdges); i += 2 {
			g.Edges = append(g.Edges, Edge{
				Src: rawEdges[i] % uint32(maxV),
				Dst: rawEdges[i+1] % uint32(maxV),
			})
		}
		if weighted {
			g.Weights = make([]float32, len(g.Edges))
			for i := range g.Weights {
				g.Weights[i] = float32(i%7) + 0.5
			}
		}
		data := validV2(t, g, 0)
		c, err := ReadV2(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Log(err)
			return false
		}
		back := c.Graph()
		if back.NumVertices != g.NumVertices || len(back.Edges) != len(g.Edges) {
			return false
		}
		for i := range g.Edges {
			if back.Edges[i] != g.Edges[i] {
				return false
			}
		}
		if weighted {
			for i := range g.Weights {
				if back.Weights[i] != g.Weights[i] {
					return false
				}
			}
		} else if back.Weights != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// CSR preserves the edge multiset for arbitrary graphs.
func TestCSRMultisetQuick(t *testing.T) {
	f := func(rawEdges []uint32) bool {
		const maxV = 64
		g := &Graph{NumVertices: maxV}
		for i := 0; i+1 < len(rawEdges); i += 2 {
			g.Edges = append(g.Edges, Edge{
				Src: rawEdges[i] % maxV,
				Dst: rawEdges[i+1] % maxV,
			})
		}
		c := BuildCSR(g)
		count := map[Edge]int{}
		for _, e := range g.Edges {
			count[e]++
		}
		for v := 0; v < maxV; v++ {
			for _, u := range c.Neighbors(VertexID(v)) {
				count[Edge{Src: VertexID(v), Dst: u}]--
			}
		}
		for _, n := range count {
			if n != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
