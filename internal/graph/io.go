package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseEdgeList reads a SNAP-style whitespace-separated text edge list
// ("src dst" or "src dst weight" per line; '#' starts a comment). The
// vertex count is 1 + the maximum id seen.
func ParseEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	g := &Graph{}
	var maxID VertexID
	weighted := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source: %w", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad destination: %w", lineNo, err)
		}
		g.Edges = append(g.Edges, Edge{Src: VertexID(src), Dst: VertexID(dst)})
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: line %d: non-finite weight %q", lineNo, fields[2])
			}
			if !weighted {
				weighted = true
				g.Weights = make([]float32, len(g.Edges)-1)
				for i := range g.Weights {
					g.Weights[i] = 1
				}
			}
			g.Weights = append(g.Weights, float32(w))
		} else if weighted {
			g.Weights = append(g.Weights, 1)
		}
		if VertexID(src) > maxID {
			maxID = VertexID(src)
		}
		if VertexID(dst) > maxID {
			maxID = VertexID(dst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	if len(g.Edges) > 0 {
		g.NumVertices = int(maxID) + 1
	}
	return g, nil
}

// WriteEdgeList writes g as a SNAP-style text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# HyVE edge list: %d vertices, %d edges\n", g.NumVertices, len(g.Edges))
	for i, e := range g.Edges {
		if g.Weights != nil {
			fmt.Fprintf(bw, "%d %d %g\n", e.Src, e.Dst, g.Weights[i])
		} else {
			fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		}
	}
	return bw.Flush()
}
