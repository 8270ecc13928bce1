package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseEdgeList(t *testing.T) {
	in := `# comment
0 1
1 2

2 0
`
	g, err := ParseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 3 || g.NumEdges() != 3 {
		t.Fatalf("|V|=%d |E|=%d", g.NumVertices, g.NumEdges())
	}
	if g.Weights != nil {
		t.Error("unweighted input produced weights")
	}
}

func TestParseEdgeListWeighted(t *testing.T) {
	in := "0 1\n1 2 2.5\n2 0\n"
	g, err := ParseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Weights == nil {
		t.Fatal("mixed weighted input should produce weights")
	}
	want := []float32{1, 2.5, 1}
	for i := range want {
		if g.Weights[i] != want[i] {
			t.Errorf("weight %d = %v, want %v", i, g.Weights[i], want[i])
		}
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	for _, in := range []string{"justone\n", "a b\n", "1 b\n", "1 2 x\n"} {
		if _, err := ParseEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := GenerateUniform(40, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", got.NumEdges(), g.NumEdges())
	}
	for i := range g.Edges {
		if got.Edges[i] != g.Edges[i] {
			t.Fatalf("edge %d changed", i)
		}
	}
}
