package graph

import (
	"reflect"
	"sync"
)

// memo is one memoized derivation: the first caller to find it unset
// runs compute under mu, and every caller with an equal key shares its
// value and error. done is set only once compute returns, so a compute
// that panics leaves the entry unset and the next caller runs it again.
type memo struct {
	key  any
	mu   sync.Mutex
	done bool
	val  any
	err  error
}

// memoTable is a set of memos, one per distinct key.
type memoTable struct {
	mu    sync.Mutex
	memos []*memo
}

func (t *memoTable) get(key any, compute func() (any, error)) (any, error) {
	t.mu.Lock()
	var m *memo
	for _, e := range t.memos {
		if reflect.DeepEqual(e.key, key) {
			m = e
			break
		}
	}
	if m == nil {
		m = &memo{key: key}
		t.memos = append(t.memos, m)
	}
	t.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.done {
		m.val, m.err = compute()
		m.done = true
	}
	return m.val, m.err
}

// Memo returns the value compute derives from g for key, computing it at
// most once per distinct key. Concurrent callers with equal keys
// coalesce: one runs compute, the others wait for it and share its value
// and error. If compute panics, the panic reaches its caller and nothing
// is stored. The value lives exactly as long as g — there is no
// process-wide table — and must be treated as read-only.
//
// Keys compare with reflect.DeepEqual, not ==, so a key may carry a
// pointer or a slice and is matched by the value behind it: two equal
// programs built separately share an entry, two programs with the same
// name but different parameters do not. Callers key with a type of their
// own package, as with context keys, so packages never collide.
//
// The memo is only sound because the graph is immutable (see Graph):
// whatever compute derives from g stays true for g's lifetime.
func (g *Graph) Memo(key any, compute func() (any, error)) (any, error) {
	return g.memos.get(key, compute)
}

// EdgeMemo is Memo for values derived from the edge array and the vertex
// count alone, never the weights: a graph and its WithUniformWeights
// siblings alias one edge array, so they share one table and compute
// each such value once between them. The table holds values, not
// graphs, so it keeps none of them alive; it dies with the last graph
// that aliases the edge array.
func (g *Graph) EdgeMemo(key any, compute func() (any, error)) (any, error) {
	return g.edgeTable().get(key, compute)
}

// edgeTable returns the table of g's edge array, creating it on first
// use for a graph that owns its edges; a sibling is born with its
// parent's.
func (g *Graph) edgeTable() *memoTable {
	g.memos.mu.Lock()
	defer g.memos.mu.Unlock()
	if g.edgeMemos == nil {
		g.edgeMemos = new(memoTable)
	}
	return g.edgeMemos
}

// weightsKey keys a weighted sibling by its AttachUniformWeights inputs.
type weightsKey struct {
	maxWeight float32
	seed      uint64
}

// WithUniformWeights returns g carrying the weights
// AttachUniformWeights(g, maxWeight, seed) would attach, without copying
// or touching g: the sibling shares g's Edges array, and with it g's
// EdgeMemo table, and adds only its own Weights, so its ContentDigest
// equals that of a weighted Clone. It is memoized on g per (maxWeight,
// seed): every call returns the same instance, and with it the same
// digest and functional memos. It is meant for unweighted graphs; g's
// own weights are not carried over.
func (g *Graph) WithUniformWeights(maxWeight float32, seed uint64) *Graph {
	v, _ := g.Memo(weightsKey{maxWeight, seed}, func() (any, error) {
		return &Graph{NumVertices: g.NumVertices, Edges: g.Edges,
			Weights:   uniformWeights(len(g.Edges), maxWeight, seed),
			edgeMemos: g.edgeTable()}, nil
	})
	return v.(*Graph)
}
