package mtree

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"mcost/internal/budget"
	"mcost/internal/metric"
	"mcost/internal/obs"
	"mcost/internal/pager"
)

// QueryBudget caps one query's node reads and distance computations;
// see RangeCtx. The zero value is unlimited.
type QueryBudget = budget.Budget

// ErrBudgetExceeded is the sentinel for budget-stopped queries (match
// with errors.Is). A query stopped by its budget still returns the
// partial result set accumulated before the stop.
var ErrBudgetExceeded = budget.ErrExceeded

// QueryOptions tunes query execution.
type QueryOptions struct {
	// UseParentDist enables the M-tree's triangle-inequality
	// optimization: an entry whose parent distance proves it cannot
	// qualify is skipped without computing its distance. The 1998 cost
	// model deliberately ignores this optimization (footnote 2), so
	// model-validation experiments run with it off; real workloads want
	// it on.
	UseParentDist bool
	// Trace, when non-nil, records the query's level-resolved cost
	// profile: node visits, distance computations, and pruning outcomes
	// per level (root = 1), attributed to the parent-distance or
	// covering-radius lemma. A nil Trace costs nothing (each recording
	// call is an inlined nil check; see BenchmarkRangeObsOverhead). A
	// Trace must not be shared by concurrent queries — give each query
	// its own and obs.Trace.Merge them in query order.
	Trace *obs.Trace
	// Budget caps the query's node reads and distance computations.
	// Only the context-aware entry points (RangeCtx, NNCtx) honor it;
	// the plain methods ignore it and stay zero-overhead. Seed it from
	// the cost model's prediction times a slack factor to make the
	// model gate its own queries.
	Budget QueryBudget
}

// Match is one query result.
type Match struct {
	Object   metric.Object
	OID      uint64
	Distance float64
}

// Range returns all objects within radius of q, in unspecified order.
func (t *Tree) Range(q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	return t.rangeSearch(nil, q, radius, opt)
}

// RangeCtx is Range honoring ctx and opt.Budget at each node fetch: a
// canceled or expired context surfaces its context error, and a query
// that would exceed its budget stops with a typed error matching
// ErrBudgetExceeded. In both cases the matches found before the stop
// are returned alongside the error — a valid partial result set (every
// returned match is within radius; completeness is what was given up).
// With a background context and a zero budget it is exactly Range.
func (t *Tree) RangeCtx(ctx context.Context, q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	return t.rangeSearch(budget.NewGuard(ctx, opt.Budget), q, radius, opt)
}

func (t *Tree) rangeSearch(g *budget.Guard, q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	if err := checkRange(q, radius); err != nil {
		return nil, err
	}
	if t.root == pager.InvalidPage {
		return nil, nil
	}
	opt.Trace.StartRange(radius)
	v, root := t.source()
	return v.rangeQuery(nil, q, root, radius, opt, g)
}

// source returns the view queries read and its root node: the frozen
// arena when one is attached, else the node store.
func (t *Tree) source() (*view, pager.PageID) {
	if a := t.arena; a != nil {
		return &a.view, 0
	}
	return &t.stored, t.root
}

// rangeQuery runs one range query from root, appending the matches to
// dst in DFS order.
func (v *view) rangeQuery(dst []Match, q metric.Object, root pager.PageID, radius float64, opt QueryOptions, g *budget.Guard) ([]Match, error) {
	sc := v.getScratch(q)
	out, err := v.rangeAt(sc, root, radius, math.NaN(), 1, opt, g, dst)
	putScratch(sc)
	return out, err
}

// rangeAt recursively collects matches under node id, a node at the
// given level (root = 1). distQP is d(q, routing object of this node) —
// NaN at the root. Distances are credited to the counter once per node,
// before each recursion, and on a budget stop, so mid-query counter
// reads see the same prefix totals as per-call counting would.
func (v *view) rangeAt(sc *scratch, id pager.PageID, radius, distQP float64, level int, opt QueryOptions, g *budget.Guard, out []Match) ([]Match, error) {
	n, err := v.fetch(id, level, g, opt.Trace, nil)
	if err != nil {
		return out, err
	}
	s := v.slab(id)
	dists := int64(0)
	for i := range n.entries {
		e := &n.entries[i]
		bound := radius
		if !n.leaf {
			bound += e.Radius
		}
		// Parent-distance pruning: |d(q,parent) - d(object,parent)| is a
		// lower bound on d(q,object); if it already exceeds the bound the
		// entry cannot qualify and the distance computation is saved.
		if opt.UseParentDist && !math.IsNaN(distQP) && !math.IsNaN(e.ParentDist) {
			if math.Abs(distQP-e.ParentDist) > bound {
				opt.Trace.PruneParent(level)
				continue
			}
		}
		d := v.dist(sc, e, s+i)
		dists++
		opt.Trace.Dist(level)
		if err := g.OnDist(); err != nil {
			v.counter.AddN(dists)
			return out, err
		}
		if d > bound {
			if !n.leaf {
				opt.Trace.PruneRadius(level)
			}
			continue
		}
		if n.leaf {
			out = append(out, Match{Object: e.Object, OID: e.OID, Distance: d})
			continue
		}
		v.counter.AddN(dists)
		dists = 0
		if out, err = v.rangeAt(sc, e.Child, radius, d, level+1, opt, g, out); err != nil {
			return out, err
		}
	}
	v.counter.AddN(dists)
	return out, nil
}

// NN returns the k nearest neighbors of q ordered by increasing
// distance, using the optimal best-first branch-and-bound algorithm: a
// priority queue of subtrees ordered by their distance lower bound, with
// the dynamic search radius set by the k-th best match so far. It
// accesses only nodes whose region intersects the final NN(q,k) ball.
func (t *Tree) NN(q metric.Object, k int, opt QueryOptions) ([]Match, error) {
	out, err := t.nnSearch(nil, q, k, math.Inf(1), opt)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NNCtx is NN honoring ctx and opt.Budget at each node fetch (see
// RangeCtx for the stop semantics). On a stop the best matches found so
// far are returned in increasing-distance order alongside the error: a
// partial result — each returned object is a true object at its true
// distance, but a closer neighbor may not have been reached yet.
func (t *Tree) NNCtx(ctx context.Context, q metric.Object, k int, opt QueryOptions) ([]Match, error) {
	return t.nnSearch(budget.NewGuard(ctx, opt.Budget), q, k, math.Inf(1), opt)
}

// NNWithStop is NN with an additional stop radius: subtrees whose
// distance lower bound exceeds stopRadius are never expanded, even if
// the current k-th candidate is farther. With stopRadius = d+ it is
// exactly NN; with a stopRadius derived from the cost model's k-NN
// distance quantile (see core.MTreeModel.NNDistQuantile) it implements
// probably-approximately-correct NN: the true neighbors are missed only
// in the low-probability tail where nn_k exceeds the chosen quantile.
func (t *Tree) NNWithStop(q metric.Object, k int, stopRadius float64, opt QueryOptions) ([]Match, error) {
	if stopRadius < 0 {
		return nil, fmt.Errorf("mtree: negative stop radius %g", stopRadius)
	}
	out, err := t.nnSearch(nil, q, k, stopRadius, opt)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// nnSearch validates a k-NN query and runs it: NN is the
// stopRadius=+Inf case. On a guard stop (context or budget) it returns
// the current best matches with the guard's error.
func (t *Tree) nnSearch(g *budget.Guard, q metric.Object, k int, stopRadius float64, opt QueryOptions) ([]Match, error) {
	if err := checkNN(q, k); err != nil {
		return nil, err
	}
	if t.root == pager.InvalidPage {
		return nil, nil
	}
	opt.Trace.StartNN(k)
	v, root := t.source()
	return v.nnQuery(nil, q, root, k, stopRadius, opt, g, nil)
}

// searchRadius is the k-NN search's dynamic radius: the k-th best
// distance once k candidates exist (d+ before), capped by stopRadius.
func searchRadius(best []Match, k int, bound, stopRadius float64) float64 {
	r := bound
	if len(best) >= k {
		r = best[0].Distance
	}
	if stopRadius < r {
		return stopRadius
	}
	return r
}

// nnQuery is the best-first k-NN search from root. It appends the
// neighbors, closest first, to dst; on a stop (guard or fetch error) it
// appends the best matches found so far and returns the error. A
// non-nil memo shares node reads across NNBatch (see view.fetch).
func (v *view) nnQuery(dst []Match, q metric.Object, root pager.PageID, k int, stopRadius float64, opt QueryOptions, g *budget.Guard, memo *[]*node) ([]Match, error) {
	sc := v.getScratch(q)
	pq := append(sc.pq[:0], nnItem{id: root, level: 1, distQ: math.NaN()})
	best := sc.best[:0]
	var err error
	for len(pq) > 0 && err == nil {
		var item nnItem
		pq, item = nnqPop(pq)
		if item.dMin > searchRadius(best, k, v.bound, stopRadius) {
			break
		}
		level := int(item.level)
		var n *node
		if n, err = v.fetch(item.id, level, g, opt.Trace, memo); err != nil {
			break
		}
		s := v.slab(item.id)
		dists := int64(0)
		for i := range n.entries {
			e := &n.entries[i]
			bound := searchRadius(best, k, v.bound, stopRadius)
			if !n.leaf {
				bound += e.Radius
			}
			if opt.UseParentDist && !math.IsNaN(item.distQ) && !math.IsNaN(e.ParentDist) {
				if math.Abs(item.distQ-e.ParentDist) > bound {
					opt.Trace.PruneParent(level)
					continue
				}
			}
			d := v.dist(sc, e, s+i)
			dists++
			opt.Trace.Dist(level)
			if err = g.OnDist(); err != nil {
				break
			}
			if n.leaf {
				if d <= searchRadius(best, k, v.bound, stopRadius) {
					best = keepBest(best, k, Match{Object: e.Object, OID: e.OID, Distance: d})
				}
				continue
			}
			dMin := d - e.Radius
			if dMin < 0 {
				dMin = 0
			}
			if dMin <= searchRadius(best, k, v.bound, stopRadius) {
				pq = nnqPush(pq, nnItem{id: e.Child, level: item.level + 1, dMin: dMin, distQ: d})
			} else {
				opt.Trace.PruneRadius(level)
			}
		}
		v.counter.AddN(dists)
	}
	// No defer on this path: a deferred closure would move pq and best to
	// the heap. The regrown storage goes back to the scratch explicitly.
	dst = drainBest(dst, best)
	sc.pq, sc.best = pq, best
	putScratch(sc)
	return dst, err
}

// LinearScanRange is the baseline: scan all objects, computing every
// distance. It reports matches plus the distances computed (= n) and the
// page reads a sequential scan of packed leaves would cost.
func LinearScanRange(objs []metric.Object, space *metric.Space, q metric.Object, radius float64) []Match {
	var out []Match
	for i, o := range objs {
		if d := space.Distance(q, o); d <= radius {
			out = append(out, Match{Object: o, OID: uint64(i), Distance: d})
		}
	}
	return out
}

// LinearScanNN is the k-NN baseline over a plain object slice: the
// brute-force oracle the engines are checked against. It deliberately
// shares no code with them — its heap is container/heap's.
func LinearScanNN(objs []metric.Object, space *metric.Space, q metric.Object, k int) []Match {
	if k <= 0 {
		return nil
	}
	best := &resultHeap{}
	for i, o := range objs {
		d := space.Distance(q, o)
		if best.Len() < k {
			heap.Push(best, Match{Object: o, OID: uint64(i), Distance: d})
		} else if worst := (*best)[0]; d < worst.Distance ||
			(d == worst.Distance && uint64(i) < worst.OID) {
			heap.Pop(best)
			heap.Push(best, Match{Object: o, OID: uint64(i), Distance: d})
		}
	}
	out := make([]Match, best.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(best).(Match)
	}
	return out
}

// resultHeap is LinearScanNN's max-heap on (distance, OID).
type resultHeap []Match

func (h resultHeap) Len() int { return len(h) }
func (h resultHeap) Less(i, j int) bool {
	if h[i].Distance != h[j].Distance {
		return h[i].Distance > h[j].Distance
	}
	return h[i].OID > h[j].OID
}
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Match)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
