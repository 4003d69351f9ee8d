package mtree

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mcost/internal/budget"
	"mcost/internal/metric"
	"mcost/internal/obs"
	"mcost/internal/pager"
)

// view is the node source the query traversals (query.go, batch.go)
// read: a tree's node store, or a frozen arena's node slab. Node fetch
// and the distance kernel are the only places the two differ; visit
// order, pruning, tracing, budgets, and counting are written once.
type view struct {
	store   nodeStore       // the store path; nil for an arena
	counter *metric.Counter // the owning tree's distance counter
	// space is counter.Space(), called uncounted: traversals credit
	// their distances per node through counter.AddN.
	space *metric.Space
	bound float64 // d+: the k-NN search radius until k candidates exist

	// Arena only. nodes is the tree in DFS preorder (root = 0) over one
	// []Entry slab: an internal entry's Child is the dense index of its
	// child node, and base[i] is the slab offset of node i's first entry.
	nodes []node
	base  []int32
	reads *atomic.Int64 // the owning tree's arena node-read counter

	kind arenaKind
	dim  int              // kind == arenaVector
	vecK metric.VecKernel // kind == arenaVector
	vecs []float64        // kind == arenaVector: slab entry e at [e*dim, (e+1)*dim)
	strs []string         // kind == arenaEdit / arenaHamming: slab entry e's object
}

// arenaKind selects the distance kernel dispatched on the hot path.
type arenaKind uint8

const (
	arenaGeneric arenaKind = iota // space.Distance on Entry.Object
	arenaVector                   // Lp slab kernel over vecs
	arenaEdit                     // prefix-shared Levenshtein over strs
	arenaHamming                  // SWAR Hamming over strs
)

// fetch reads node id for a traversal at the given level (root = 1):
// the budget guard, then the counted read, then the trace visit. A
// non-nil memo (NNBatch, indexed by node id) serves every later read of
// a node within the batch for free, touching neither the guard, the
// store, nor the trace.
func (v *view) fetch(id pager.PageID, level int, g *budget.Guard, tr *obs.Trace, memo *[]*node) (*node, error) {
	if memo != nil && int(id) < len(*memo) && (*memo)[id] != nil {
		return (*memo)[id], nil
	}
	if err := g.BeforeFetch(); err != nil {
		return nil, err
	}
	var n *node
	if v.store != nil {
		var err error
		if n, err = v.store.fetch(id); err != nil {
			return nil, err
		}
	} else {
		n = &v.nodes[id]
		v.reads.Add(1)
	}
	tr.Visit(level)
	if memo != nil {
		if int(id) >= len(*memo) {
			*memo = append(*memo, make([]*node, int(id)+1-len(*memo))...)
		}
		(*memo)[id] = n
	}
	return n, nil
}

// slab returns the slab offset of node id's first entry; the store path
// has no slab and reads Entry.Object instead.
func (v *view) slab(id pager.PageID) int {
	if v.base == nil {
		return 0
	}
	return int(v.base[id])
}

// dist computes d(query, e) without counting it. Arena kinds read slab
// entry s through kernels bit-identical to space.Distance (see
// metric/kernels.go), so no pruning decision depends on the source.
func (v *view) dist(sc *scratch, e *Entry, s int) float64 {
	switch v.kind {
	case arenaVector:
		off := s * v.dim
		return v.vecK(sc.qv, v.vecs[off:off+v.dim])
	case arenaHamming:
		return metric.HammingRaw(sc.qs, v.strs[s])
	case arenaEdit:
		return float64(sc.lev.Dist(v.strs[s]))
	}
	return v.space.Distance(sc.q, e.Object)
}

// scratch is the pooled per-query state: the query in the form the
// view's kernel reads, the prefix-shared edit-distance rows, and the
// k-NN heaps. Reusing it across queries keeps the hot paths
// allocation-free.
type scratch struct {
	q    metric.Object
	qv   []float64 // kind == arenaVector
	qs   string    // kind == arenaEdit / arenaHamming
	lev  *metric.PrefixLev
	pq   []nnItem
	best []Match
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (v *view) getScratch(q metric.Object) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.q = q
	switch v.kind {
	case arenaVector:
		sc.qv = q.(metric.Vector)
	case arenaEdit:
		sc.qs = q.(string)
		if sc.lev == nil {
			sc.lev = metric.NewPrefixLev(sc.qs)
		} else {
			sc.lev.Reset(sc.qs)
		}
	case arenaHamming:
		sc.qs = q.(string)
	}
	return sc
}

func putScratch(sc *scratch) {
	sc.q, sc.qv, sc.qs = nil, nil, ""
	sc.pq, sc.best = sc.pq[:0], sc.best[:0]
	scratchPool.Put(sc)
}

func checkRange(q metric.Object, radius float64) error {
	if q == nil {
		return errors.New("mtree: nil query object")
	}
	if radius < 0 {
		return fmt.Errorf("mtree: negative radius %g", radius)
	}
	return nil
}

func checkNN(q metric.Object, k int) error {
	if q == nil {
		return errors.New("mtree: nil query object")
	}
	if k <= 0 {
		return fmt.Errorf("mtree: k = %d", k)
	}
	return nil
}

// nnItem is a pending subtree in the k-NN search, ordered by dMin, the
// lower bound on the distance from q to any object in the subtree.
type nnItem struct {
	id    pager.PageID
	level int32   // tree level of the subtree root (tree root = 1)
	dMin  float64
	distQ float64 // d(q, routing object of the subtree); NaN for the root
}

// The heaps below are container/heap's up/down sifts over concrete
// slices: no interface boxing per push, and storage reused through the
// scratch pool.

func nnqPush(h []nnItem, x nnItem) []nnItem {
	h = append(h, x)
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].dMin < h[i].dMin) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func nnqPop(h []nnItem) ([]nnItem, nnItem) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dMin < h[j].dMin {
			j = j2
		}
		if !(h[j].dMin < h[i].dMin) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

// bestLess orders the result heap: max distance on top, ties broken on
// OID, so the retained set — and therefore the k-NN answer at a tied
// k-th boundary — is the k smallest (distance, OID) pairs regardless of
// traversal encounter order. Canonical answers let result caches and
// cross-engine comparisons demand bit-identity.
func bestLess(x, y Match) bool {
	if x.Distance != y.Distance {
		return x.Distance > y.Distance
	}
	return x.OID > y.OID
}

func bestPush(h []Match, x Match) []Match {
	h = append(h, x)
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !bestLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// bestPop removes the heap top (the current k-th best).
func bestPop(h []Match) []Match {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	bestDown(h, 0, n)
	return h[:n]
}

func bestDown(h []Match, i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && bestLess(h[j2], h[j1]) {
			j = j2
		}
		if !bestLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// keepBest offers m to a heap holding the k smallest (distance, OID)
// pairs seen so far.
func keepBest(h []Match, k int, m Match) []Match {
	if len(h) < k {
		return bestPush(h, m)
	}
	if bestLess(h[0], m) {
		return bestPush(bestPop(h), m)
	}
	return h
}

// drainBest appends the heap's matches to dst in increasing (distance,
// OID) order — successive pops fill the output back to front — growing
// dst at most once and leaving the heap storage reusable.
func drainBest(dst []Match, h []Match) []Match {
	dst = slices.Grow(dst, len(h))
	base := len(dst)
	for n := len(h); n > 0; n = len(h) {
		h[0], h[n-1] = h[n-1], h[0]
		bestDown(h, 0, n-1)
		dst = append(dst, h[n-1])
		h = h[:n-1]
	}
	slices.Reverse(dst[base:])
	return dst
}
