package core

import (
	"fmt"
	"math"

	"mcost/internal/histogram"
	"mcost/internal/mtree"
	"mcost/internal/numeric"
)

// H-MCM: a histogram-compressed middle point between the paper's two
// models. N-MCM keeps every node's (radius, entries) — O(M) space and
// evaluation; L-MCM collapses each level to one average radius — O(L)
// but coarser, because F is evaluated at the mean radius instead of
// averaging F over the radius distribution (Jensen's gap). H-MCM keeps a
// small equi-width histogram of covering radii per level, with the entry
// mass per bucket: O(L·B) space, and the per-bucket evaluation recovers
// most of N-MCM's accuracy. This addresses the paper's closing question
// about models with less tree statistics.

// RadiusBucket summarizes the nodes of one level whose covering radii
// fall in one bucket.
type RadiusBucket struct {
	// AvgRadius is the mean covering radius of the bucket's nodes.
	AvgRadius float64
	// Count is the number of nodes in the bucket.
	Count int
	// Entries is the total entry count across the bucket's nodes.
	Entries int
}

// CompressedStats is the H-MCM statistics snapshot.
type CompressedStats struct {
	// Size is the number of indexed objects n.
	Size int
	// Levels holds the per-level radius histograms, index 0 = root
	// level.
	Levels [][]RadiusBucket
}

// FloatsStored reports the snapshot's size in stored numbers, for
// space-accuracy comparisons (N-MCM stores 2 per node, L-MCM 2 per
// level, H-MCM 3 per non-empty bucket).
func (cs *CompressedStats) FloatsStored() int {
	total := 0
	for _, level := range cs.Levels {
		total += 3 * len(level)
	}
	return total
}

// CompressStats builds the H-MCM snapshot with the given number of
// radius buckets per level.
func CompressStats(stats *mtree.Stats, buckets int) (*CompressedStats, error) {
	if stats == nil || stats.Size <= 0 {
		return nil, fmt.Errorf("core: invalid stats")
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("core: buckets = %d", buckets)
	}
	cs := &CompressedStats{Size: stats.Size, Levels: make([][]RadiusBucket, stats.Height)}
	for level := 1; level <= stats.Height; level++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, ns := range stats.Nodes {
			if ns.Level != level {
				continue
			}
			lo = math.Min(lo, ns.Radius)
			hi = math.Max(hi, ns.Radius)
		}
		if math.IsInf(lo, 1) {
			continue // no nodes at this level (cannot happen in a valid tree)
		}
		width := (hi - lo) / float64(buckets)
		type acc struct {
			radiusSum float64
			count     int
			entries   int
		}
		accs := make([]acc, buckets)
		for _, ns := range stats.Nodes {
			if ns.Level != level {
				continue
			}
			b := 0
			if width > 0 {
				b = int((ns.Radius - lo) / width)
				if b >= buckets {
					b = buckets - 1
				}
			}
			accs[b].radiusSum += ns.Radius
			accs[b].count++
			accs[b].entries += ns.Entries
		}
		var out []RadiusBucket
		for _, a := range accs {
			if a.count == 0 {
				continue
			}
			out = append(out, RadiusBucket{
				AvgRadius: a.radiusSum / float64(a.count),
				Count:     a.count,
				Entries:   a.entries,
			})
		}
		cs.Levels[level-1] = out
	}
	return cs, nil
}

// CompressedModel predicts costs from H-MCM statistics.
type CompressedModel struct {
	f     *histogram.Histogram
	cs    *CompressedStats
	steps int
}

// Compress derives the H-MCM model from this model's statistics.
func (m *MTreeModel) Compress(buckets int) (*CompressedModel, error) {
	cs, err := CompressStats(m.stats, buckets)
	if err != nil {
		return nil, err
	}
	return &CompressedModel{f: m.f, cs: cs, steps: m.steps}, nil
}

// Range predicts range-query costs: per bucket,
// count·F(r̄_b + rq) node reads and entries·F(r̄_b + rq) distances.
func (cm *CompressedModel) Range(rq float64) CostEstimate {
	var est CostEstimate
	for _, level := range cm.cs.Levels {
		for _, b := range level {
			p := cm.f.CDF(b.AvgRadius + rq)
			est.Nodes += float64(b.Count) * p
			est.Dists += float64(b.Entries) * p
		}
	}
	return est
}

// NN predicts k-NN costs by the same integration as the full models.
func (cm *CompressedModel) NN(k int) CostEstimate {
	bound := cm.f.Bound()
	h := bound / float64(cm.steps)
	tail := numeric.NewBinomialTailTable(cm.cs.Size, k)
	w := func(r float64) float64 { return tail.At(cm.f.CDF(r)) }
	var est CostEstimate
	wPrev := w(0)
	for i := 0; i < cm.steps; i++ {
		x1 := float64(i+1) * h
		wNext := w(x1)
		dp := wNext - wPrev
		wPrev = wNext
		if dp < 1e-9 {
			continue
		}
		rc := cm.Range(float64(i)*h + h/2)
		est.Nodes += rc.Nodes * dp
		est.Dists += rc.Dists * dp
	}
	return est
}

// FloatsStored exposes the snapshot size.
func (cm *CompressedModel) FloatsStored() int { return cm.cs.FloatsStored() }
