package graph

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Prepared-dataset support: hyve-prep compiles a dataset into a v2
// container (<dir>/<Name>.s<Scale>.hyve2); Dataset.Load then prefers
// that file over in-process generation. Because the container stores
// the edge list in exact generation order and carries the content
// digest, a prepared load is bit-identical to generating — same graph
// bytes, same cache.PointDigest, same simulation results — just without
// paying the R-MAT walk. The v2-load-identity invariant in
// internal/check pins this.

var (
	preparedMu  sync.Mutex
	preparedDir string
)

// SetPreparedDir points Dataset.Load at a directory of prepared v2
// containers. Empty string (the default) disables prepared loading.
// Containers opened through this path stay mapped for the process
// lifetime — the memoized dataset graphs alias them.
func SetPreparedDir(dir string) {
	preparedMu.Lock()
	defer preparedMu.Unlock()
	preparedDir = dir
}

// PreparedDir returns the directory set by SetPreparedDir.
func PreparedDir() string {
	preparedMu.Lock()
	defer preparedMu.Unlock()
	return preparedDir
}

// PreparedPath is the canonical container filename for a dataset
// instance within dir: <Name>.s<Scale>.hyve2.
func (d Dataset) PreparedPath(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("%s.s%d.hyve2", d.Name, d.Scale))
}

// loadPrepared opens and validates the prepared container for d.
// Returns (nil, nil) when the file simply does not exist — the caller
// falls back to generation. Any other failure is loud: a present but
// wrong container silently regenerated would hide exactly the drift
// this path is meant to surface.
func (d Dataset) loadPrepared(dir string) (*Graph, error) {
	path := d.PreparedPath(dir)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return nil, nil
	}
	regen := func(err error) error {
		return fmt.Errorf("%w\n(regenerate with: hyve-prep -dataset %s -out %s)", err, d.Name, path)
	}
	c, err := OpenV2(path)
	if err != nil {
		return nil, regen(fmt.Errorf("prepared dataset %s: %w", d.Name, err))
	}
	g := c.Graph()
	if err := d.checkPrepared(c, g); err != nil {
		c.Close()
		return nil, regen(fmt.Errorf("prepared dataset %s (%s): %w", d.Name, path, err))
	}
	// The container is intentionally left open: on the zero-copy path
	// the memoized graph aliases the mapping for the process lifetime.
	return g, nil
}

// checkPrepared validates that the container actually holds this
// dataset instance: exact generated sizes, matching seed when recorded,
// unweighted (datasets attach weights downstream), and a regenerated
// first chunk that matches byte-for-byte. The chunk check is the cheap
// generator-fingerprint: if the R-MAT generator ever changes, a stale
// container disagrees on chunk 0 with near certainty and the load fails
// loudly instead of silently serving pre-change data.
func (d Dataset) checkPrepared(c *Container, g *Graph) error {
	if g.NumVertices != d.GenVertices() || len(g.Edges) != d.GenEdges() {
		return fmt.Errorf("container holds |V|=%d |E|=%d, dataset generates |V|=%d |E|=%d",
			g.NumVertices, len(g.Edges), d.GenVertices(), d.GenEdges())
	}
	if s := c.Seed(); s != 0 && s != d.Seed {
		return fmt.Errorf("container seed %#x, dataset seed %#x", s, d.Seed)
	}
	if g.Weights != nil {
		return fmt.Errorf("container is weighted; dataset instances are generated unweighted")
	}
	n := min(len(g.Edges), rmatChunkEdges)
	want, err := GenerateRMATWorkers(d.GenVertices(), n, d.RMAT, d.Seed, 1)
	if err != nil {
		return fmt.Errorf("regenerating fingerprint chunk: %w", err)
	}
	if !edgesEqual(g.Edges[:n], want.Edges) {
		return fmt.Errorf("first %d edges do not match regeneration — stale container or generator drift", n)
	}
	return nil
}

func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
