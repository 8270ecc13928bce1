package graph

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

type testKey struct {
	name string
	v    []float64
}

func TestMemoCoalescesByValue(t *testing.T) {
	g, err := GenerateUniform(64, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	compute := func(v int) func() (any, error) {
		return func() (any, error) { runs.Add(1); return v, nil }
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A fresh slice every call: keys match by value, not identity.
			v, err := g.Memo(testKey{"a", []float64{1, 2}}, compute(1))
			if err != nil || v.(int) != 1 {
				t.Errorf("Memo = %v, %v; want 1", v, err)
			}
		}()
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("8 equal keys ran compute %d times, want 1", n)
	}
	if v, _ := g.Memo(testKey{"a", []float64{1, 3}}, compute(2)); v.(int) != 2 {
		t.Errorf("different key returned %v, want its own value 2", v)
	}
	if v, _ := g.Memo(testKey{"b", []float64{1, 2}}, compute(3)); v.(int) != 3 {
		t.Errorf("different key returned %v, want its own value 3", v)
	}
	if n := runs.Load(); n != 3 {
		t.Fatalf("compute ran %d times for 3 keys", n)
	}

	// Errors are memoized like values.
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := g.Memo(testKey{name: "err"}, func() (any, error) { runs.Add(1); return nil, boom }); err != boom {
			t.Errorf("err = %v, want boom", err)
		}
	}
	if n := runs.Load(); n != 4 {
		t.Errorf("failing compute ran %d times in total, want 4", n)
	}
}

// TestMemoPanicStoresNothing: a compute that panics leaves its key
// unset, so the next caller computes the value instead of sharing a nil.
func TestMemoPanicStoresNothing(t *testing.T) {
	g, err := GenerateUniform(8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compute's panic did not reach the caller")
			}
		}()
		g.Memo(testKey{name: "p"}, func() (any, error) { panic("boom") })
	}()
	v, err := g.Memo(testKey{name: "p"}, func() (any, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("Memo after a panic = %v, %v; want 7", v, err)
	}
	if v, _ := g.Memo(testKey{name: "p"}, func() (any, error) { return 8, nil }); v != 7 {
		t.Errorf("Memo = %v, want the stored 7", v)
	}
}

func TestWithUniformWeights(t *testing.T) {
	g, err := GenerateRMAT(512, 4096, DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := g.WithUniformWeights(8, 11)
	if g.WithUniformWeights(8, 11) != w {
		t.Fatal("repeat call returned a new instance")
	}
	if g.Weighted() {
		t.Fatal("parent gained weights")
	}
	if &w.Edges[0] != &g.Edges[0] || len(w.Edges) != len(g.Edges) || w.NumVertices != g.NumVertices {
		t.Fatal("sibling does not alias the parent's edge array")
	}
	ref := g.Clone()
	AttachUniformWeights(ref, 8, 11)
	if ContentDigest(w) != ContentDigest(ref) {
		t.Fatal("sibling digest differs from Clone + AttachUniformWeights")
	}
	if o := g.WithUniformWeights(8, 12); o == w || ContentDigest(o) == ContentDigest(w) {
		t.Fatal("another seed shares the sibling")
	}
}
