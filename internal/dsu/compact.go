package dsu

// Compact is a disjoint-set union over 0..n-1 packed into a single
// int32 array: parent[x] ≥ 0 is a parent pointer, parent[x] < 0 marks a
// root whose set has −parent[x] elements. Union by size plus path
// halving keeps operations effectively constant, like DSU, at a quarter
// of the memory (4 bytes per element, no rank array).
//
// The layout exists for the simulator's replicated-state algorithms:
// a full-reconstruction node (flood) carries one union-find replica per
// vertex, so at n = 8192 the population holds n replicas of n entries —
// 268 MB here versus >1 GB with the pointer-sized DSU.
type Compact struct {
	parent []int32
	sets   int
}

// NewCompact returns a Compact with n singleton sets. n must fit in an
// int32 (the simulator's instance sizes are far below that).
func NewCompact(n int) *Compact {
	c := &Compact{parent: make([]int32, n), sets: n}
	for i := range c.parent {
		c.parent[i] = -1
	}
	return c
}

// Len returns the number of elements in the universe.
func (c *Compact) Len() int { return len(c.parent) }

// Sets returns the current number of disjoint sets.
func (c *Compact) Sets() int { return c.sets }

// Find returns the canonical representative of x's set, halving the
// path as it walks.
func (c *Compact) Find(x int) int {
	for c.parent[x] >= 0 {
		p := c.parent[x]
		if c.parent[p] >= 0 {
			c.parent[x] = c.parent[p]
		}
		x = int(p)
	}
	return x
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already joined).
func (c *Compact) Union(x, y int) bool {
	rx, ry := c.Find(x), c.Find(y)
	if rx == ry {
		return false
	}
	// parent values at roots are negated sizes: the more negative root
	// is the larger set and absorbs the other.
	if c.parent[rx] > c.parent[ry] {
		rx, ry = ry, rx
	}
	c.parent[rx] += c.parent[ry]
	c.parent[ry] = int32(rx)
	c.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (c *Compact) Same(x, y int) bool { return c.Find(x) == c.Find(y) }

// Reset reinitializes the structure to n singleton sets, reusing the
// parent array when it is large enough — the pool-recycling hook for
// run-shared substrates that keep one Compact per run instead of one
// per replica.
func (c *Compact) Reset(n int) {
	if cap(c.parent) < n {
		c.parent = make([]int32, n)
	}
	c.parent = c.parent[:n]
	for i := range c.parent {
		c.parent[i] = -1
	}
	c.sets = n
}

// CopyFrom makes c an independent copy of src (same partition, same
// internal paths), reusing c's parent array when possible. Truncated
// word-plane runs use it to refine a shared partition with per-replica
// edges without mutating the shared copy.
func (c *Compact) CopyFrom(src *Compact) {
	n := len(src.parent)
	if cap(c.parent) < n {
		c.parent = make([]int32, n)
	}
	c.parent = c.parent[:n]
	copy(c.parent, src.parent)
	c.sets = src.sets
}
