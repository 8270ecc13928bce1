package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// ContentDigest hashes the graph's actual content — vertex count, the
// edge list in exact order, and weights when present. It is the byte
// stream behind cache.GraphDigest: two differently provenanced graphs
// with equal structure share an identity, which is exactly what makes a
// v2 container load and an in-process generation of the same dataset
// interchangeable under cache.PointDigest. The same digest is stamped
// into v2 container headers at write time.
//
// The hash is computed once per instance and memoized on the graph
// (a sync.Once), which the immutability contract on Graph
// makes safe; it dies with the graph.
//
// Edge order matters and must: the grid build (and therefore every
// float accumulation order downstream) follows edge-list order, so only
// an order-exact hash can stand in for "same simulation input".
func ContentDigest(g *Graph) [sha256.Size]byte {
	g.digestOnce.Do(func() { g.digest = contentDigest(g) })
	return g.digest
}

func contentDigest(g *Graph) [sha256.Size]byte {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(g.NumVertices))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(g.Edges)))
	h.Write(hdr[:])
	// Stream the edge list in bounded chunks: 1024 edges → 8 KB writes.
	var buf [8192]byte
	at := 0
	flush := func() {
		h.Write(buf[:at])
		at = 0
	}
	for _, e := range g.Edges {
		if at == len(buf) {
			flush()
		}
		binary.LittleEndian.PutUint32(buf[at:], e.Src)
		binary.LittleEndian.PutUint32(buf[at+4:], e.Dst)
		at += 8
	}
	flush()
	if g.Weighted() {
		h.Write([]byte{'w'})
		for _, w := range g.Weights {
			if at == len(buf) {
				flush()
			}
			binary.LittleEndian.PutUint32(buf[at:], math.Float32bits(w))
			at += 4
		}
		flush()
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}
