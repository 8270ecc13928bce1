package graph

import (
	"bytes"
	"strings"
	"testing"
)

func FuzzParseEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n0 1 0.5\n")
	f.Add("0 1 NaN\n")
	f.Add("0 1 +Inf\n")
	f.Add("0 1 1e39\n")
	f.Add("4294967295 0\n")
	f.Add("0 1 0.5\n1 2\n") // mixed weighted/unweighted
	f.Add("a b\n")
	f.Add("0\n")
	f.Add(strings.Repeat("0 1\n", 100))
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ParseEdgeList(strings.NewReader(text))
		if err != nil {
			return
		}
		// Anything accepted must be internally consistent.
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v\ninput: %q", err, text)
		}
		// And must round-trip through the v2 container unchanged.
		data := validV2(t, g, 0)
		c, err := ReadV2(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("serialized graph does not parse: %v", err)
		}
		graphsEqual(t, c.Graph(), g)
	})
}

// TestValidateMaxVertexID pins a fuzzer-found bug: an edge touching
// vertex MaxUint32 gives NumVertices = 1<<32, which Validate used to
// truncate to a zero bound via uint32, rejecting every edge.
func TestValidateMaxVertexID(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("4294967295 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 1<<32 {
		t.Fatalf("NumVertices = %d, want %d", g.NumVertices, int64(1)<<32)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph with max vertex ID fails validation: %v", err)
	}
}

func TestParseEdgeListRejectsNonFinite(t *testing.T) {
	for _, w := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "1e39"} {
		if _, err := ParseEdgeList(strings.NewReader("0 1 " + w + "\n")); err == nil {
			t.Errorf("weight %q accepted", w)
		}
	}
}
