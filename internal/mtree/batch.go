package mtree

import (
	"context"
	"fmt"
	"math"

	"mcost/internal/budget"
	"mcost/internal/metric"
	"mcost/internal/pager"
)

// Batched query execution. RangeBatch and NNBatch run a slice of
// queries in one shared traversal: each node is fetched (and decoded,
// in paged mode) at most once per batch and its entries are tested
// against every still-active query, so node reads amortize across the
// batch while distance computations stay per-query. Every query's
// pruning decisions depend only on its own state, so per-query results
// are bit-identical to running the queries one by one through
// Range/NN — the equivalence matrix in batch_test.go pins this at every
// batch size, and in paged mode TestBatchPagedEquivalence pins it
// against the memory tree.
//
// Batches share the Tree's read-only concurrency contract: a batch must
// not run concurrently with mutation, and a QueryOptions.Trace or
// Budget belongs to one batch at a time. A traced batch records each
// node visit once per batch (the amortized accounting) and each
// distance computation per query; Trace.Batches counts executions.

// RangeBatch returns, for each query in qs, all objects within radius
// of it — out[i] is exactly what Range(qs[i], radius, opt) returns, in
// the same order, but the batch traverses the tree once, fetching each
// node a single time for all queries that need it.
func (t *Tree) RangeBatch(qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error) {
	return t.rangeBatch(nil, qs, radius, opt)
}

// RangeBatchCtx is RangeBatch honoring ctx and opt.Budget. The budget
// caps the batch as a whole (node reads are shared property of the
// batch; distance computations sum over queries). On a stop the
// per-query partial result sets accumulated so far are returned
// alongside the typed error — every returned match is a true match
// within radius.
func (t *Tree) RangeBatchCtx(ctx context.Context, qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error) {
	return t.rangeBatch(budget.NewGuard(ctx, opt.Budget), qs, radius, opt)
}

func (t *Tree) rangeBatch(g *budget.Guard, qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error) {
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("mtree: nil query object at batch index %d", i)
		}
	}
	if radius < 0 {
		return nil, fmt.Errorf("mtree: negative radius %g", radius)
	}
	out := make([][]Match, len(qs))
	if len(qs) == 0 || t.root == pager.InvalidPage {
		return out, nil
	}
	opt.Trace.StartRangeBatch(radius, len(qs))
	v, root := t.source()
	b := &rangeBatchRun{v: v, scs: make([]*scratch, len(qs)), radius: radius, opt: opt, g: g, out: out}
	active := make([]int, len(qs))
	dQP := make([]float64, len(qs))
	for i, q := range qs {
		b.scs[i] = v.getScratch(q)
		active[i] = i
		dQP[i] = math.NaN()
	}
	err := b.visit(root, 1, active, dQP)
	for _, sc := range b.scs {
		putScratch(sc)
	}
	return out, err
}

// rangeBatchRun is the state of one shared range traversal.
type rangeBatchRun struct {
	v      *view
	scs    []*scratch // per query
	radius float64
	opt    QueryOptions
	g      *budget.Guard
	out    [][]Match
}

// visit fetches node id once and tests its entries against every active
// query. active holds the indices (into scs) of queries whose traversal
// reaches this node; dQP[j] is d(query active[j], routing object of this
// node), NaN at the root. Entries are processed in page order and
// children recursed in entry order, exactly like the per-query rangeAt,
// so each query's matches appear in its sequential DFS order.
func (b *rangeBatchRun) visit(id pager.PageID, level int, active []int, dQP []float64) error {
	n, err := b.v.fetch(id, level, b.g, b.opt.Trace, nil)
	if err != nil {
		return err
	}
	s := b.v.slab(id)
	dists := int64(0)
	for i := range n.entries {
		e := &n.entries[i]
		bound := b.radius
		if !n.leaf {
			bound += e.Radius
		}
		var childActive []int
		var childD []float64
		for j, qi := range active {
			if b.opt.UseParentDist && !math.IsNaN(dQP[j]) && !math.IsNaN(e.ParentDist) {
				if math.Abs(dQP[j]-e.ParentDist) > bound {
					b.opt.Trace.PruneParent(level)
					continue
				}
			}
			d := b.v.dist(b.scs[qi], e, s+i)
			dists++
			b.opt.Trace.Dist(level)
			if err := b.g.OnDist(); err != nil {
				b.v.counter.AddN(dists)
				return err
			}
			if d > bound {
				if !n.leaf {
					b.opt.Trace.PruneRadius(level)
				}
				continue
			}
			if n.leaf {
				b.out[qi] = append(b.out[qi], Match{Object: e.Object, OID: e.OID, Distance: d})
			} else {
				childActive = append(childActive, qi)
				childD = append(childD, d)
			}
		}
		if len(childActive) > 0 {
			b.v.counter.AddN(dists)
			dists = 0
			if err := b.visit(e.Child, level+1, childActive, childD); err != nil {
				return err
			}
		}
	}
	b.v.counter.AddN(dists)
	return nil
}

// NNBatch returns, for each query in qs, its k nearest neighbors,
// closest first — out[i] is bit-identical to NN(qs[i], k, opt). The
// batch shares one node memo: the best-first searches run per query
// (the dynamic search radius is inherently per-query state) but a node
// fetched for one query is served from memory to every later query in
// the batch, so each node is read and decoded at most once per batch.
func (t *Tree) NNBatch(qs []metric.Object, k int, opt QueryOptions) ([][]Match, error) {
	return t.nnBatch(nil, qs, k, opt)
}

// NNBatchCtx is NNBatch honoring ctx and opt.Budget; the budget caps
// the batch as a whole (see RangeBatchCtx). On a stop, queries already
// finished keep their complete results, the in-flight query returns its
// best-so-far, and queries not yet started return nil — all returned
// neighbors are true objects at true distances.
func (t *Tree) NNBatchCtx(ctx context.Context, qs []metric.Object, k int, opt QueryOptions) ([][]Match, error) {
	return t.nnBatch(budget.NewGuard(ctx, opt.Budget), qs, k, opt)
}

func (t *Tree) nnBatch(g *budget.Guard, qs []metric.Object, k int, opt QueryOptions) ([][]Match, error) {
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("mtree: nil query object at batch index %d", i)
		}
	}
	if k <= 0 {
		return nil, fmt.Errorf("mtree: k = %d", k)
	}
	out := make([][]Match, len(qs))
	if len(qs) == 0 || t.root == pager.InvalidPage {
		return out, nil
	}
	opt.Trace.StartNNBatch(k, len(qs))
	v, root := t.source()
	// The memo makes each node's first access per batch the guarded,
	// counted, traced read and every later access free. Decoding is
	// deterministic, so a memoized node is indistinguishable from a
	// re-fetched one; memory is one pointer per node id.
	memo := make([]*node, t.NumNodes())
	for qi, q := range qs {
		ms, err := v.nnQuery(nil, q, root, k, math.Inf(1), opt, g, &memo)
		out[qi] = ms
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
