package numeric

import (
	"math"
	"testing"
)

// sameBits reports whether two float64s are the identical bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzBinomialTail pins BinomialTailTable to BinomialTail bit for bit
// over fuzzed (n, k, p): both the lower-tail branch (k <= n-k+1) and
// the upper-tail branch, the constant k <= 0 and k > n tables, and p on
// and off [0, 1], NaN included. The cost model's k-NN integrals rely on
// this identity to stay bit-identical after moving to the table.
func FuzzBinomialTail(f *testing.F) {
	f.Add(10, 3, 0.2)
	f.Add(10, 9, 0.7)      // upper tail
	f.Add(10000, 10, 1e-3) // the serving default
	f.Add(10000, 5001, 0.5)
	f.Add(1, 1, 0.5)
	f.Add(5, 0, 0.5)
	f.Add(5, 6, 0.5)
	f.Add(100, 50, 0.0)
	f.Add(100, 50, 1.0)
	f.Add(100, 50, math.NaN())
	f.Add(100, 50, -0.25)
	f.Add(2000, 40, 1e-300)
	f.Fuzz(func(t *testing.T, n, k int, p float64) {
		if n < 0 || n > 20000 || k < -5 || k > n+5 {
			t.Skip()
		}
		tab := NewBinomialTailTable(n, k)
		want := BinomialTail(n, k, p)
		if got := tab.At(p); !sameBits(got, want) {
			t.Fatalf("table(%d, %d).At(%v) = %v (%#016x), BinomialTail = %v (%#016x)",
				n, k, p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		// A table is reusable: a second p on the same table must still
		// agree.
		q := math.Abs(math.Mod(p*7.3, 1))
		if got, want := tab.At(q), BinomialTail(n, k, q); !sameBits(got, want) {
			t.Fatalf("table(%d, %d).At(%v) = %v, BinomialTail = %v", n, k, q, got, want)
		}
	})
}

// TestBinomialTailTableGrid sweeps p over a fine grid for k on both
// branches and at both ends, the access pattern of a k-NN integral.
func TestBinomialTailTableGrid(t *testing.T) {
	const n = 3000
	for _, k := range []int{-1, 0, 1, 2, 10, 100, n / 2, n/2 + 1, n/2 + 2, n - 1, n, n + 1} {
		tab := NewBinomialTailTable(n, k)
		for i := 0; i <= 2000; i++ {
			p := float64(i) / 2000
			p = p * p * p // dense near 0, where small-k tails move
			if got, want := tab.At(p), BinomialTail(n, k, p); !sameBits(got, want) {
				t.Fatalf("k=%d p=%v: table %v, BinomialTail %v", k, p, got, want)
			}
		}
	}
}

func BenchmarkBinomialTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BinomialTail(10000, 100, 0.01)
	}
}

func BenchmarkBinomialTailTable(b *testing.B) {
	tab := NewBinomialTailTable(10000, 100)
	for i := 0; i < b.N; i++ {
		tab.At(0.01)
	}
}
