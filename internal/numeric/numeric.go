// Package numeric provides the numerical routines the cost model needs:
// log-space binomial tail probabilities (Eq. 9 of the paper must survive
// n = 10^6) and simple quadrature helpers.
package numeric

import (
	"fmt"
	"math"
)

// LogChoose returns ln C(n, k) computed via lgamma, exact enough for the
// probability sums in the cost model. It panics on invalid arguments,
// which are always programming errors here.
func LogChoose(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("numeric: LogChoose(%d, %d) out of domain", n, k))
	}
	if k == 0 || k == n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln1 - lk - lnk
}

// BinomialTail returns Pr{X >= k} for X ~ Binomial(n, p), computed in log
// space term by term. This is exactly P_{Q,k}(r) of the paper (Eq. 9)
// with p = F(r): the probability that at least k of n objects fall inside
// the query ball. It sums the lower tail (k terms) or, when that is
// shorter, the upper tail (n-k+1 terms), and every term costs three
// lgamma calls (LogChoose) plus one exp: about 70 ns per term, 7 µs at
// n = 10⁴, k = 100 on a 2-vCPU Xeon. Code that evaluates one (n, k) at
// many p, such as every k-NN integral of the cost model, should build a
// BinomialTailTable once instead: same bits, no lgamma per call (about
// 0.9 µs for the same call).
func BinomialTail(n, k int, p float64) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	if k <= n-k+1 {
		// Pr{X >= k} = 1 - sum_{i=0}^{k-1} C(n,i) p^i q^(n-i)
		var lower float64
		for i := 0; i < k; i++ {
			lower += math.Exp(LogChoose(n, i) + float64(i)*logP + float64(n-i)*logQ)
		}
		if lower > 1 {
			lower = 1
		}
		return 1 - lower
	}
	// Sum the upper tail directly.
	var upper float64
	for i := k; i <= n; i++ {
		upper += math.Exp(LogChoose(n, i) + float64(i)*logP + float64(n-i)*logQ)
	}
	if upper > 1 {
		upper = 1
	}
	return upper
}

// expUnderflow is a bound below which math.Exp returns exactly +0 (the
// true underflow point is about -745.13, in both the Go and the assembly
// implementations). Adding +0 to a non-negative partial sum leaves its
// bits unchanged, so BinomialTailTable skips such terms without calling
// exp.
const expUnderflow = -746

// BinomialTailTable is BinomialTail for one fixed (n, k), evaluated at
// many p. NewBinomialTailTable pays the LogChoose coefficients of the
// summed branch once; At then evaluates each term with the same
// expression, in the same order, as BinomialTail, so the two agree bit
// for bit at every p. A term whose exponent lies below the exp underflow
// point is skipped, which is exact (see expUnderflow). A table is
// immutable and safe for concurrent use.
type BinomialTailTable struct {
	n, k int
	// lower reports that At sums the lower tail, terms 0..k-1, and
	// returns its complement; otherwise it sums terms k..n directly.
	lower bool
	// first is the index of the first summed term; logC[j] holds
	// LogChoose(n, first+j).
	first int
	logC  []float64
}

// NewBinomialTailTable precomputes the tail of Binomial(n, ·) at k.
// Any k is accepted: k <= 0 gives the constant 1, k > n the constant 0,
// exactly as BinomialTail does. n must be non-negative.
func NewBinomialTailTable(n, k int) *BinomialTailTable {
	t := &BinomialTailTable{n: n, k: k}
	if k <= 0 || k > n {
		return t
	}
	last := n
	if k <= n-k+1 {
		t.lower = true
		last = k - 1
	} else {
		t.first = k
	}
	t.logC = make([]float64, last-t.first+1)
	for j := range t.logC {
		t.logC[j] = LogChoose(n, t.first+j)
	}
	return t
}

// At returns Pr{X >= k} for X ~ Binomial(n, p): BinomialTail(n, k, p),
// bit for bit.
func (t *BinomialTailTable) At(p float64) float64 {
	n := t.n
	switch {
	case t.k <= 0:
		return 1
	case t.k > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	var sum float64
	for j, c := range t.logC {
		i := t.first + j
		x := c + float64(i)*logP + float64(n-i)*logQ
		if x < expUnderflow {
			continue
		}
		sum += math.Exp(x)
	}
	if sum > 1 {
		sum = 1
	}
	if t.lower {
		return 1 - sum
	}
	return sum
}

// Trapezoid integrates f over [a, b] with the given number of equal steps
// using the composite trapezoid rule.
func Trapezoid(f func(float64) float64, a, b float64, steps int) float64 {
	if steps <= 0 {
		panic(fmt.Sprintf("numeric: Trapezoid steps = %d", steps))
	}
	if a == b {
		return 0
	}
	h := (b - a) / float64(steps)
	sum := (f(a) + f(b)) / 2
	for i := 1; i < steps; i++ {
		sum += f(a + float64(i)*h)
	}
	return sum * h
}

// Stieltjes integrates g with respect to the increasing weight function W
// over [a, b]: it returns sum over the grid of g(midpoint) * (W(next) -
// W(cur)). Integrals of the form ∫ g(r) p(r) dr, where p = dP/dr would
// be numerically fragile to evaluate directly, take this form; using
// increments of P is exact for the histogram CDFs. The cost model's k-NN
// integrator walks this grid in one pass for two integrands at once, and
// its tests hold it to this function bit for bit.
func Stieltjes(g, w func(float64) float64, a, b float64, steps int) float64 {
	if steps <= 0 {
		panic(fmt.Sprintf("numeric: Stieltjes steps = %d", steps))
	}
	if a == b {
		return 0
	}
	h := (b - a) / float64(steps)
	var sum float64
	wPrev := w(a)
	for i := 0; i < steps; i++ {
		x0 := a + float64(i)*h
		x1 := x0 + h
		wNext := w(x1)
		sum += g(x0+h/2) * (wNext - wPrev)
		wPrev = wNext
	}
	return sum
}

// Bisect finds x in [lo, hi] with f(x) ~ target for a nondecreasing f,
// to within xtol. It returns the smallest x found with f(x) >= target;
// if f(hi) < target it returns hi.
func Bisect(f func(float64) float64, target, lo, hi, xtol float64) float64 {
	if f(hi) < target {
		return hi
	}
	if f(lo) >= target {
		return lo
	}
	for hi-lo > xtol {
		mid := (lo + hi) / 2
		if f(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
