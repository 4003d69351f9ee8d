// Package core implements the paper's contribution: cost models that
// predict the I/O (node reads) and CPU (distance computations) costs of
// range and k-nearest-neighbor queries over metric access methods, using
// only the distance distribution F of the indexed space plus compact
// tree statistics.
//
// Two M-tree models are provided. N-MCM (node-based, Section 3.1) keeps
// the covering radius and entry count of every node: the access
// probability of node N with radius r(N) under range(Q, rQ) is
// F(r(N) + rQ) by the triangle inequality and the homogeneity assumption
// (Eq. 5), so expected node reads and distance computations are sums of
// those probabilities (Eq. 6-7). L-MCM (level-based, Section 3.2) only
// keeps the node count and average radius per level (Eq. 15-16).
// Nearest-neighbor costs integrate the range costs against the
// distribution of the k-NN distance (Eq. 9-14, 17-18).
//
// Section 5's vp-tree model is in vpcm.go; node-size tuning (Section
// 4.1) in tuning.go.
package core

import (
	"errors"
	"fmt"

	"mcost/internal/histogram"
	"mcost/internal/mtree"
	"mcost/internal/numeric"
)

// CostEstimate is a predicted query cost.
type CostEstimate struct {
	// Nodes is the expected number of node reads (I/O cost).
	Nodes float64
	// Dists is the expected number of distance computations (CPU cost).
	Dists float64
}

// MTreeModel predicts M-tree query costs from the distance distribution
// and tree statistics. Construct with NewMTreeModel.
//
// A model is immutable: refits build a new one. Its k-NN integrals
// depend only on the model and k, so each is computed once per clamped
// k and memoized on the model for its lifetime; the memos go with the
// model when it is dropped, and need no invalidation.
type MTreeModel struct {
	f     *histogram.Histogram
	stats *mtree.Stats
	// steps controls integration granularity for NN estimates.
	steps int

	nnl, nnn memo[CostEstimate]
	nnDist   memo[float64]
}

// NewMTreeModel builds a model from the estimated distance distribution
// F̂ and the tree statistics snapshot. Both N-MCM and L-MCM predictions
// are available on the same model; they differ only in which part of the
// statistics they read.
func NewMTreeModel(f *histogram.Histogram, stats *mtree.Stats) (*MTreeModel, error) {
	if f == nil {
		return nil, errors.New("core: nil distance distribution")
	}
	if stats == nil {
		return nil, errors.New("core: nil tree stats")
	}
	if stats.Size <= 0 {
		return nil, errors.New("core: tree stats describe an empty tree")
	}
	if len(stats.Levels) != stats.Height {
		return nil, fmt.Errorf("core: stats have %d levels, height %d", len(stats.Levels), stats.Height)
	}
	steps := 40 * f.Bins()
	if steps < 400 {
		steps = 400
	}
	if steps > 8000 {
		steps = 8000
	}
	return &MTreeModel{f: f, stats: stats, steps: steps}, nil
}

// F returns the model's distance distribution.
func (m *MTreeModel) F() *histogram.Histogram { return m.f }

// N returns the number of indexed objects.
func (m *MTreeModel) N() int { return m.stats.Size }

// RangeN predicts range(Q, rQ) costs with the node-based model:
// nodes = Σ_i F(r(N_i) + rQ) (Eq. 6), dists = Σ_i e(N_i) F(r(N_i) + rQ)
// (Eq. 7).
func (m *MTreeModel) RangeN(rq float64) CostEstimate {
	var est CostEstimate
	for _, ns := range m.stats.Nodes {
		p := m.f.CDF(ns.Radius + rq)
		est.Nodes += p
		est.Dists += float64(ns.Entries) * p
	}
	return est
}

// RangeL predicts range(Q, rQ) costs with the level-based model:
// nodes ≈ Σ_l M_l F(r̄_l + rQ) (Eq. 15), dists ≈ Σ_l M_{l+1} F(r̄_l + rQ)
// with M_{L+1} = n (Eq. 16).
func (m *MTreeModel) RangeL(rq float64) CostEstimate {
	var est CostEstimate
	for li, ls := range m.stats.Levels {
		p := m.f.CDF(ls.AvgRadius + rq)
		est.Nodes += float64(ls.Nodes) * p
		// Entries at level l = nodes at level l+1 (objects below leaves).
		below := m.stats.Size
		if li+1 < len(m.stats.Levels) {
			below = m.stats.Levels[li+1].Nodes
		}
		est.Dists += float64(below) * p
	}
	return est
}

// RangeObjects predicts the result cardinality of range(Q, rQ):
// n · F(rQ) (Eq. 8).
func (m *MTreeModel) RangeObjects(rq float64) float64 {
	return float64(m.stats.Size) * m.f.CDF(rq)
}

// clampK bounds a requested neighbor count to the valid [1, n] window.
// The estimators receive k straight from user-facing APIs; k <= 0 or
// k > n would otherwise feed degenerate binomial tails (and from there
// NaN/Inf radii) into admission budgets and router timeouts, so every
// k-taking method clamps first. The convention: k <= 0 prices as k = 1,
// k > n prices as the full scan that retrieving all n objects implies.
func (m *MTreeModel) clampK(k int) int {
	if k < 1 {
		return 1
	}
	if n := m.stats.Size; k > n {
		return n
	}
	return k
}

// NNDistCDF evaluates P_{Q,k}(r) = Pr{nn_{Q,k} <= r}: the probability
// that at least k of the n objects fall within distance r of the query
// (Eq. 9), computed from the binomial tail in log space.
func (m *MTreeModel) NNDistCDF(k int, r float64) float64 {
	return numeric.BinomialTail(m.stats.Size, m.clampK(k), m.f.CDF(r))
}

// nnTail returns P_{Q,k} as a function of F(r): the binomial tail of
// Eq. 9 with its coefficients computed once for (n, clamped k).
func (m *MTreeModel) nnTail(k int) *numeric.BinomialTailTable {
	return numeric.NewBinomialTailTable(m.stats.Size, m.clampK(k))
}

// ExpectedNNDist predicts E[nn_{Q,k}], the expected distance of the k-th
// nearest neighbor: d+ − ∫ P_{Q,k}(r) dr (Eq. 11; Eq. 14 for k=1).
// Memoized per clamped k.
func (m *MTreeModel) ExpectedNNDist(k int) float64 {
	k = m.clampK(k)
	return m.nnDist.get(k, func() float64 {
		return expectedNNDist(m.f, m.stats.Size, k, m.steps)
	})
}

// RadiusForExpectedObjects returns r(c) = min{r : n·F(r) >= c}, the
// radius at which the expected result cardinality reaches c — the
// paper's third NN estimator uses r(1) (Section 4, model 3).
func (m *MTreeModel) RadiusForExpectedObjects(c float64) float64 {
	return m.f.Quantile(c / float64(m.stats.Size))
}

// nnIntegrate computes ∫ rangeCost(r) p_k(r) dr as a Stieltjes sum
// against P_{Q,k}, avoiding the fragile density p_k (Eq. 10): each grid
// cell contributes rangeCost(midpoint) · ΔP. It walks numeric.Stieltjes's
// grid once, evaluating P_{Q,k} and the range cost once per cell for
// nodes and dists together.
func (m *MTreeModel) nnIntegrate(k int, rangeCost func(r float64) CostEstimate) CostEstimate {
	var est CostEstimate
	bound := m.f.Bound()
	if bound == 0 {
		return est
	}
	tail := m.nnTail(k)
	h := bound / float64(m.steps)
	wPrev := tail.At(m.f.CDF(0))
	for i := 0; i < m.steps; i++ {
		x0 := float64(i) * h
		wNext := tail.At(m.f.CDF(x0 + h))
		rc := rangeCost(x0 + h/2)
		est.Nodes += rc.Nodes * (wNext - wPrev)
		est.Dists += rc.Dists * (wNext - wPrev)
		wPrev = wNext
	}
	return est
}

// NNN predicts NN(Q, k) costs with the node-based model by integrating
// the range costs over the k-NN distance distribution (the k=1 case is
// the paper's Eq. for nodes(NN(Q,1)) and dists(NN(Q,1))). Memoized per
// clamped k.
func (m *MTreeModel) NNN(k int) CostEstimate {
	k = m.clampK(k)
	return m.nnn.get(k, func() CostEstimate { return m.nnIntegrate(k, m.RangeN) })
}

// NNL predicts NN(Q, k) costs with the level-based model (Eq. 17-18).
// Memoized per clamped k: after the first call for a k, a call is a
// lock-free map read with no allocation.
func (m *MTreeModel) NNL(k int) CostEstimate {
	k = m.clampK(k)
	return m.nnl.get(k, func() CostEstimate { return m.nnIntegrate(k, m.RangeL) })
}

// NNViaExpectedDist predicts NN(Q,k) costs as those of a range query
// with radius E[nn_{Q,k}] — the paper's second NN estimator (Section 4,
// model 2). Level-based range costs are used, matching Figure 2.
func (m *MTreeModel) NNViaExpectedDist(k int) CostEstimate {
	return m.RangeL(m.ExpectedNNDist(k))
}

// NNViaR1 predicts NN(Q,k) costs as those of a range query with radius
// r(k), the radius whose expected result cardinality is k — the paper's
// third NN estimator (r(1) for k=1).
func (m *MTreeModel) NNViaR1(k int) CostEstimate {
	return m.RangeL(m.RadiusForExpectedObjects(float64(m.clampK(k))))
}

// RangeLByLevel returns the level-based range prediction broken down per
// tree level (root first) — the model side of a query "explain".
func (m *MTreeModel) RangeLByLevel(rq float64) []CostEstimate {
	out := make([]CostEstimate, len(m.stats.Levels))
	for li, ls := range m.stats.Levels {
		p := m.f.CDF(ls.AvgRadius + rq)
		below := m.stats.Size
		if li+1 < len(m.stats.Levels) {
			below = m.stats.Levels[li+1].Nodes
		}
		out[li] = CostEstimate{
			Nodes: float64(ls.Nodes) * p,
			Dists: float64(below) * p,
		}
	}
	return out
}

// NNDistQuantile returns the p-quantile of the k-NN distance: the
// smallest radius r with P_{Q,k}(r) >= p. Approximate NN search uses it
// as a stop radius — with probability >= p the true k-th neighbor lies
// within it, so searching no farther sacrifices recall only in the
// remaining tail (the PAC flavor of NN search built on Eq. 9).
func (m *MTreeModel) NNDistQuantile(k int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return m.f.Bound()
	}
	tail := m.nnTail(k)
	return numeric.Bisect(func(r float64) float64 {
		return tail.At(m.f.CDF(r))
	}, p, 0, m.f.Bound(), m.f.Bound()/1e6)
}
