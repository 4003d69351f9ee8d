package core

import (
	"maps"
	"sync"
	"sync/atomic"
)

// memo caches one integral of an immutable model per k. Reads are
// lock-free and allocation-free: the table is a copy-on-write map behind
// an atomic pointer, so a hit is one atomic load and one map lookup.
// Misses serialize on mu, which also keeps two goroutines from paying
// for the same k twice. The table grows by one entry per distinct k
// asked for, at most n for a model over n objects. The zero value is an
// empty memo.
type memo[V any] struct {
	mu  sync.Mutex
	tab atomic.Pointer[map[int]V]
}

// lookup returns the published value for k, if any.
func (c *memo[V]) lookup(k int) (V, bool) {
	if tab := c.tab.Load(); tab != nil {
		v, ok := (*tab)[k]
		return v, ok
	}
	var zero V
	return zero, false
}

// get returns the memoized value for k, computing and publishing it with
// compute on the first call for k.
func (c *memo[V]) get(k int, compute func() V) V {
	if v, ok := c.lookup(k); ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.lookup(k); ok {
		return v
	}
	v := compute()
	next := map[int]V{k: v}
	if old := c.tab.Load(); old != nil {
		maps.Copy(next, *old)
	}
	c.tab.Store(&next)
	return v
}
