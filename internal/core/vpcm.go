package core

import (
	"errors"
	"fmt"

	"mcost/internal/histogram"
	"mcost/internal/numeric"
)

// VPModel predicts vp-tree range-query CPU costs (Section 5 of the
// paper) from the distance distribution alone: cutoff values are
// estimated as quantiles of F (μ_i ≈ F⁻¹(i/m)), a child is accessed iff
// μ_{i-1} − rQ < d(Q,O_v) ≤ μ_i + rQ (Eq. 19-20), and lower levels use
// the distance distribution renormalized to the 2μ_i bound implied by
// the triangle inequality (Eq. 22-23). The vp-tree is main-memory, so
// the model reports distance computations only: one per accessed node,
// plus bucket scans at the leaves.
type VPModel struct {
	f *histogram.Histogram
	// N is the number of indexed objects.
	N int
	// M is the tree fan-out.
	M int
	// BucketSize is the leaf capacity.
	BucketSize int
}

// NewVPModel validates and builds the model.
func NewVPModel(f *histogram.Histogram, n, m, bucketSize int) (*VPModel, error) {
	if f == nil {
		return nil, errors.New("core: nil distance distribution")
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: n = %d", n)
	}
	if m < 2 {
		return nil, fmt.Errorf("core: vp-tree fan-out %d", m)
	}
	if bucketSize < 1 {
		return nil, fmt.Errorf("core: bucket size %d", bucketSize)
	}
	return &VPModel{f: f, N: n, M: m, BucketSize: bucketSize}, nil
}

// VPCost is a predicted vp-tree query cost.
type VPCost struct {
	// InternalVisits is the expected number of internal nodes whose
	// vantage distance is computed.
	InternalVisits float64
	// LeafVisits is the expected number of leaf buckets scanned.
	LeafVisits float64
	// Dists is the expected total distance computations:
	// InternalVisits + LeafVisits · (average bucket occupancy).
	Dists float64
}

// RangeCost predicts the cost of range(Q, rQ). The recursion mirrors
// the tree: a node with nObjs objects and conditional distance
// distribution F_i spends one distance, estimates its cutoffs as
// quantiles of F_i, and recurses into each child weighted by its access
// probability with the child's distribution truncated at 2μ_i.
func (vm *VPModel) RangeCost(rq float64) VPCost {
	var cost VPCost
	vm.rangeRec(vm.f, float64(vm.N), rq, 1.0, &cost)
	return cost
}

func (vm *VPModel) rangeRec(f *histogram.Histogram, nObjs, rq, pReach float64, cost *VPCost) {
	if pReach < 1e-9 {
		return
	}
	if nObjs <= float64(vm.BucketSize) {
		cost.LeafVisits += pReach
		cost.Dists += pReach * nObjs
		return
	}
	// One distance to the vantage point of this node.
	cost.InternalVisits += pReach
	cost.Dists += pReach

	m := vm.M
	remaining := nObjs - 1 // the vantage point is consumed here
	childN := remaining / float64(m)
	prevMu := 0.0
	for i := 1; i <= m; i++ {
		var mu float64
		if i == m {
			mu = f.Bound()
		} else {
			mu = f.Quantile(float64(i) / float64(m))
		}
		// Access probability (Eq. 20): F(μ_i + rQ) − F(μ_{i-1} − rQ).
		p := f.CDF(mu+rq) - f.CDF(prevMu-rq)
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		if p*pReach >= 1e-9 && childN > 0 {
			// The child's pairwise distances are bounded by 2μ_i
			// (triangle inequality, Fig. 8): renormalize F (Eq. 22).
			cap := 2 * mu
			if cap > f.Bound() {
				cap = f.Bound()
			}
			childF := f
			if cap < f.Bound() {
				if tf, err := f.Truncated(cap); err == nil {
					childF = tf
				}
			}
			vm.rangeRec(childF, childN, rq, pReach*p, cost)
		}
		prevMu = mu
	}
}

// NNCost predicts the CPU cost of NN(Q, k) on the vp-tree. The paper
// states the extension "follows the same principles" as the M-tree's
// and omits it for brevity; this completes it: integrate the range cost
// over the distribution of the k-th-neighbor distance,
// P_k(r) = Pr{Binomial(n, F(r)) >= k} (Eq. 9), as a Stieltjes sum.
// Each RangeCost evaluation recurses over the whole (modelled) tree, so
// the sum skips grid cells whose P_k increment is negligible — the k-NN
// distance mass concentrates in a narrow band.
func (vm *VPModel) NNCost(k int) VPCost {
	steps := 10 * vm.f.Bins()
	if steps < 200 {
		steps = 200
	}
	if steps > 2000 {
		steps = 2000
	}
	bound := vm.f.Bound()
	h := bound / float64(steps)
	tail := numeric.NewBinomialTailTable(vm.N, k)
	w := func(r float64) float64 { return tail.At(vm.f.CDF(r)) }
	var out VPCost
	wPrev := w(0)
	for i := 0; i < steps; i++ {
		x1 := float64(i+1) * h
		wNext := w(x1)
		dp := wNext - wPrev
		wPrev = wNext
		if dp < 1e-7 {
			continue
		}
		rc := vm.RangeCost(float64(i)*h + h/2)
		out.InternalVisits += rc.InternalVisits * dp
		out.LeafVisits += rc.LeafVisits * dp
		out.Dists += rc.Dists * dp
	}
	return out
}
