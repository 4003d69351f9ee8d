package mtree

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"mcost/internal/budget"
	"mcost/internal/metric"
)

// Scan is the first-class linear-scan engine: the thing the
// breakdown-aware planner routes to when high intrinsic dimension
// defeats the tree (Pestov's lower bounds — past the concentration
// point every metric index reads most of its nodes AND pays the
// traversal overhead, so the honest plan is the flat scan). It owns an
// (OID, object) list, answers the same range/k-NN queries as the tree
// with identical tie-break conventions (the k smallest (distance, OID)
// pairs, closest first), and meters cost in the paper's currency: one
// distance computation per object and one node read per leaf-equivalent
// page of sequentially-scanned objects.
//
// Budgets and contexts are honored at page granularity, like the tree's
// per-node-fetch checks: a stopped query returns the valid partial
// result accumulated so far with the typed budget/context error. Batch
// variants share the page reads across the batch, as the tree's shared
// traversals do.
//
// Like the tree, a Scan is safe for concurrent read-only queries;
// Insert/Remove must not run concurrently with queries.
type Scan struct {
	space   *metric.Space
	objs    []metric.Object
	oids    []uint64
	perPage int

	nodeReads atomic.Int64
	distCalcs atomic.Int64
}

// NewScan builds a scan engine over the objects with OIDs equal to the
// slice index — the same OIDs the tree assigns at BulkLoad, so results
// are comparable across engines. pageSize sizes the leaf-equivalent
// page used for the node-read meter; sample (usually objs[0]) fixes the
// per-object encoded size.
func NewScan(space *metric.Space, objs []metric.Object, pageSize int) (*Scan, error) {
	if space == nil {
		return nil, errors.New("mtree: scan: nil space")
	}
	if len(objs) == 0 {
		return nil, errors.New("mtree: scan: no objects")
	}
	per, err := scanObjectsPerPage(objs[0], pageSize)
	if err != nil {
		return nil, err
	}
	oids := make([]uint64, len(objs))
	for i := range oids {
		oids[i] = uint64(i)
	}
	return &Scan{
		space:   space,
		objs:    append([]metric.Object(nil), objs...),
		oids:    oids,
		perPage: per,
	}, nil
}

// scanObjectsPerPage derives how many packed objects one leaf-equivalent
// page holds, from the same on-page layout formula the tree uses — so
// the scan's node-read meter and the planner's scan cost stay honest
// against the tree's.
func scanObjectsPerPage(sample metric.Object, pageSize int) (int, error) {
	codec, err := CodecFor(sample)
	if err != nil {
		return 0, fmt.Errorf("mtree: scan: %w", err)
	}
	if pageSize <= 0 {
		pageSize = 4096
	}
	leafCap, _ := NodeCapacities(pageSize, codec.Size(sample))
	if leafCap < 1 {
		leafCap = 1
	}
	return leafCap, nil
}

// ScanPages returns the sequential page reads a full scan of n objects
// of the sample's shape costs — the Nodes term of the scan cost
// estimate, shared by the planner and the engine's meter.
func ScanPages(sample metric.Object, n, pageSize int) (int, error) {
	per, err := scanObjectsPerPage(sample, pageSize)
	if err != nil {
		return 0, err
	}
	return (n + per - 1) / per, nil
}

// Size returns the number of scannable objects.
func (s *Scan) Size() int { return len(s.objs) }

// Pages returns the sequential page reads one full scan costs.
func (s *Scan) Pages() int {
	if len(s.objs) == 0 {
		return 0
	}
	return (len(s.objs) + s.perPage - 1) / s.perPage
}

// NodeReads returns the leaf-equivalent page reads accumulated since
// the last ResetCounters.
func (s *Scan) NodeReads() int64 { return s.nodeReads.Load() }

// DistanceCount returns the distance computations accumulated since the
// last ResetCounters.
func (s *Scan) DistanceCount() int64 { return s.distCalcs.Load() }

// ResetCounters zeroes the cost meters.
func (s *Scan) ResetCounters() {
	s.nodeReads.Store(0)
	s.distCalcs.Store(0)
}

// Insert appends one object under the given OID (the tree hands out
// OIDs; the scan keeps them so the engines stay comparable).
func (s *Scan) Insert(obj metric.Object, oid uint64) {
	s.objs = append(s.objs, obj)
	s.oids = append(s.oids, oid)
}

// Remove deletes the object stored under oid; it reports whether the
// OID was present. Order of the remaining objects is preserved — scan
// results stay deterministic across deletions.
func (s *Scan) Remove(oid uint64) bool {
	for i, id := range s.oids {
		if id == oid {
			s.objs = append(s.objs[:i], s.objs[i+1:]...)
			s.oids = append(s.oids[:i], s.oids[i+1:]...)
			return true
		}
	}
	return false
}

// Range returns all objects within radius of q in (distance, OID)
// order. Unlike the tree's traversal-order results, a scan's natural
// order IS canonical, so it is sorted once here and partials stay
// prefixes of the full answer... in scan order; see rangeScan.
func (s *Scan) Range(q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	return s.rangeScan(nil, nil, q, radius, opt)
}

// RangeCtx is Range honoring ctx and opt.Budget at each page boundary
// (see Tree.RangeCtx for the partial-result semantics).
func (s *Scan) RangeCtx(ctx context.Context, q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	return s.rangeScan(ctx, budget.NewGuard(ctx, opt.Budget), q, radius, opt)
}

func (s *Scan) rangeScan(ctx context.Context, g *budget.Guard, q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	if err := checkRange(q, radius); err != nil {
		return nil, err
	}
	opt.Trace.StartRange(radius)
	var out []Match
	err := s.walk(g, opt, func(i int) {
		if d := s.space.Distance(q, s.objs[i]); d <= radius {
			out = append(out, Match{Object: s.objs[i], OID: s.oids[i], Distance: d})
		}
	}, 1)
	sortMatches(out)
	return out, err
}

// NN returns the k nearest neighbors of q, closest first, with the
// canonical (distance, OID) tie-break shared by every engine.
func (s *Scan) NN(q metric.Object, k int, opt QueryOptions) ([]Match, error) {
	return s.nnScan(nil, q, k, opt)
}

// NNCtx is NN honoring ctx and opt.Budget at each page boundary. On a
// stop the best neighbors found so far are returned closest-first with
// the typed error — valid objects at true distances; a closer neighbor
// may live in the unscanned suffix.
func (s *Scan) NNCtx(ctx context.Context, q metric.Object, k int, opt QueryOptions) ([]Match, error) {
	return s.nnScan(budget.NewGuard(ctx, opt.Budget), q, k, opt)
}

func (s *Scan) nnScan(g *budget.Guard, q metric.Object, k int, opt QueryOptions) ([]Match, error) {
	if err := checkNN(q, k); err != nil {
		return nil, err
	}
	opt.Trace.StartNN(k)
	sc := scratchPool.Get().(*scratch)
	best := sc.best
	err := s.walk(g, opt, func(i int) {
		d := s.space.Distance(q, s.objs[i])
		best = keepBest(best, k, Match{Object: s.objs[i], OID: s.oids[i], Distance: d})
	}, 1)
	out := drainBest(nil, best)
	sc.best = best
	putScratch(sc)
	return out, err
}

// walk drives one metered pass over the object list: a guarded node
// read per page of perQueries distinct queries (scanning for a batch
// reads each page once), a distance charge per visit() call. visit runs
// once per object index; the caller computes distances inside it so the
// meter and the work stay in lockstep.
func (s *Scan) walk(g *budget.Guard, opt QueryOptions, visit func(i int), perQueries int) error {
	for lo := 0; lo < len(s.objs); lo += s.perPage {
		if err := g.BeforeFetch(); err != nil {
			return err
		}
		s.nodeReads.Add(1)
		opt.Trace.Visit(1)
		hi := lo + s.perPage
		if hi > len(s.objs) {
			hi = len(s.objs)
		}
		for i := lo; i < hi; i++ {
			visit(i)
			s.distCalcs.Add(int64(perQueries))
			for rep := 0; rep < perQueries; rep++ {
				opt.Trace.Dist(1)
				if err := g.OnDist(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sortMatches orders matches by (distance, OID) — the canonical result
// order result caches and cross-engine equivalence tests compare under.
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Distance != ms[j].Distance {
			return ms[i].Distance < ms[j].Distance
		}
		return ms[i].OID < ms[j].OID
	})
}

// RangeBatch answers a batch of range queries in one shared pass: each
// page is read (and charged) once for the whole batch, every query pays
// its own distance computations. out[i] is exactly Range(qs[i], radius).
func (s *Scan) RangeBatch(qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error) {
	return s.rangeBatch(nil, qs, radius, opt)
}

// RangeBatchCtx is RangeBatch honoring ctx and a batch-wide budget; on
// a stop every query keeps the partial matches found before it.
func (s *Scan) RangeBatchCtx(ctx context.Context, qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error) {
	return s.rangeBatch(budget.NewGuard(ctx, opt.Budget), qs, radius, opt)
}

func (s *Scan) rangeBatch(g *budget.Guard, qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error) {
	if radius < 0 {
		return nil, fmt.Errorf("mtree: negative radius %g", radius)
	}
	for _, q := range qs {
		if q == nil {
			return nil, errors.New("mtree: nil query object")
		}
	}
	opt.Trace.StartRangeBatch(radius, len(qs))
	out := make([][]Match, len(qs))
	err := s.walk(g, opt, func(i int) {
		for qi, q := range qs {
			if d := s.space.Distance(q, s.objs[i]); d <= radius {
				out[qi] = append(out[qi], Match{Object: s.objs[i], OID: s.oids[i], Distance: d})
			}
		}
	}, len(qs))
	for qi := range out {
		sortMatches(out[qi])
	}
	return out, err
}

// NNBatch answers a batch of k-NN queries in one shared pass (page
// reads amortize across the batch; see RangeBatch).
func (s *Scan) NNBatch(qs []metric.Object, k int, opt QueryOptions) ([][]Match, error) {
	return s.nnBatch(nil, qs, k, opt)
}

// NNBatchCtx is NNBatch honoring ctx and a batch-wide budget.
func (s *Scan) NNBatchCtx(ctx context.Context, qs []metric.Object, k int, opt QueryOptions) ([][]Match, error) {
	return s.nnBatch(budget.NewGuard(ctx, opt.Budget), qs, k, opt)
}

func (s *Scan) nnBatch(g *budget.Guard, qs []metric.Object, k int, opt QueryOptions) ([][]Match, error) {
	if k <= 0 {
		return nil, fmt.Errorf("mtree: k = %d", k)
	}
	for _, q := range qs {
		if q == nil {
			return nil, errors.New("mtree: nil query object")
		}
	}
	opt.Trace.StartNNBatch(k, len(qs))
	heaps := make([][]Match, len(qs))
	err := s.walk(g, opt, func(i int) {
		for qi, q := range qs {
			d := s.space.Distance(q, s.objs[i])
			heaps[qi] = keepBest(heaps[qi], k, Match{Object: s.objs[i], OID: s.oids[i], Distance: d})
		}
	}, len(qs))
	out := make([][]Match, len(qs))
	for qi, h := range heaps {
		out[qi] = drainBest(nil, h)
	}
	return out, err
}

// CostEstimateScan reports what one full scan costs in the paper's
// currency: Pages() node reads and Size() distance computations — the
// deterministic denominator every tree prediction is compared against.
func (s *Scan) CostEstimateScan() (nodes, dists float64) {
	return float64(s.Pages()), float64(len(s.objs))
}
