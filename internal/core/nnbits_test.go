package core

import (
	"fmt"
	"math"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/numeric"
)

// nnBitsN is the fixture size of the bit-identity table: small enough
// that k = n/2 and k = n sweep in well under a second.
const nnBitsN = 1000

// nnBitsValues evaluates every k-NN estimator in the package on one
// fixed fixture, keyed by a readable label.
func nnBitsValues(t *testing.T) map[string]float64 {
	t.Helper()
	const dim, pageSize = 8, 2048
	fx := newFixture(t, dataset.PaperClustered(nnBitsN, dim, 1201), pageSize)
	m := fx.model
	cm, err := m.Compress(4)
	if err != nil {
		t.Fatal(err)
	}
	lc, ic := vectorCapacities(pageSize, dim)
	sf, err := NewStatsFreeModel(m.F(), StatsFreeConfig{N: nnBitsN, LeafCapacity: lc, InternalCapacity: ic})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVPModel(m.F(), nnBitsN, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	put2 := func(name string, e CostEstimate) {
		out[name+".Nodes"] = e.Nodes
		out[name+".Dists"] = e.Dists
	}
	for l := 1; l <= sf.Height(); l++ {
		out[fmt.Sprintf("StatsFree.LevelRadius(%d)", l)] = sf.PredictedLevelRadius(l)
	}
	for _, k := range []int{0, 1, 10, 100, nnBitsN / 2, nnBitsN, nnBitsN + 1} {
		put2(fmt.Sprintf("NNL(%d)", k), m.NNL(k))
		put2(fmt.Sprintf("NNN(%d)", k), m.NNN(k))
		out[fmt.Sprintf("ExpectedNNDist(%d)", k)] = m.ExpectedNNDist(k)
		out[fmt.Sprintf("NNDistQuantile(%d,0.5)", k)] = m.NNDistQuantile(k, 0.5)
		out[fmt.Sprintf("NNDistQuantile(%d,0.9)", k)] = m.NNDistQuantile(k, 0.9)
		put2(fmt.Sprintf("Compressed.NN(%d)", k), cm.NN(k))
		put2(fmt.Sprintf("StatsFree.NN(%d)", k), sf.NN(k))
		vc := vm.NNCost(k)
		out[fmt.Sprintf("VP.NNCost(%d).InternalVisits", k)] = vc.InternalVisits
		out[fmt.Sprintf("VP.NNCost(%d).LeafVisits", k)] = vc.LeafVisits
		out[fmt.Sprintf("VP.NNCost(%d).Dists", k)] = vc.Dists
	}
	return out
}

// TestNNEstimatorBits pins every k-NN estimator to the exact float64 it
// returned before the memoized single-sweep integration existed: the
// speedup may change how often and how cheaply the integrals run, never
// a single bit of what they return.
func TestNNEstimatorBits(t *testing.T) {
	got := nnBitsValues(t)
	if len(got) != len(nnBitsWant) {
		t.Fatalf("evaluated %d values, table has %d", len(got), len(nnBitsWant))
	}
	for name, want := range nnBitsWant {
		v, ok := got[name]
		if !ok {
			t.Errorf("%s: not evaluated", name)
			continue
		}
		if b := math.Float64bits(v); b != want {
			t.Errorf("%s = %v (%#016x), want %v (%#016x)", name, v, b, math.Float64frombits(want), want)
		}
	}
}

// TestNNIntegrateMatchesStieltjes checks the single-pass integrator
// against its reference, live rather than through recorded values: two
// numeric.Stieltjes sweeps (one for nodes, one for dists) over
// NNDistCDF, which calls numeric.BinomialTail at every grid point. Both
// must agree bit for bit, for the level- and node-based range costs, on
// a continuous F̂ and on the discrete edit-distance one.
func TestNNIntegrateMatchesStieltjes(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *dataset.Dataset
	}{
		{"clustered", dataset.PaperClustered(800, 6, 1204)},
		{"words", dataset.Words(800, 1205)},
	} {
		m := newFixture(t, tc.d, 1024).model
		for _, k := range []int{1, 7, 60} {
			for name, rangeCost := range map[string]func(float64) CostEstimate{"RangeL": m.RangeL, "RangeN": m.RangeN} {
				ref := func(part func(CostEstimate) float64) float64 {
					return numeric.Stieltjes(func(r float64) float64 { return part(rangeCost(r)) },
						func(r float64) float64 { return m.NNDistCDF(k, r) }, 0, m.f.Bound(), m.steps)
				}
				want := CostEstimate{
					Nodes: ref(func(e CostEstimate) float64 { return e.Nodes }),
					Dists: ref(func(e CostEstimate) float64 { return e.Dists }),
				}
				if got := m.nnIntegrate(k, rangeCost); !sameAnswer(got, want) {
					t.Errorf("%s, %s, k=%d: single pass %+v, Stieltjes reference %+v", tc.name, name, k, got, want)
				}
			}
		}
	}
}

// nnBitsWant was recorded with the per-call BinomialTail integrators
// (two Stieltjes sweeps per NNL/NNN, no memo).
var nnBitsWant = map[string]uint64{
	"Compressed.NN(0).Dists":         0x0000000000000000,
	"Compressed.NN(0).Nodes":         0x0000000000000000,
	"Compressed.NN(1).Dists":         0x406956e76d7aea62,
	"Compressed.NN(1).Nodes":         0x402a825afe7b3a70,
	"Compressed.NN(10).Dists":        0x406ec6e0ffccfc22,
	"Compressed.NN(10).Nodes":        0x402faf9d074b2b32,
	"Compressed.NN(100).Dists":       0x407d69b7598a3a21,
	"Compressed.NN(100).Nodes":       0x403d3b29ea33315f,
	"Compressed.NN(1000).Dists":      0x40909ffffd7439a1,
	"Compressed.NN(1000).Nodes":      0x40503ffffd82ed42,
	"Compressed.NN(1001).Dists":      0x0000000000000000,
	"Compressed.NN(1001).Nodes":      0x0000000000000000,
	"Compressed.NN(500).Dists":       0x40901407b5876e86,
	"Compressed.NN(500).Nodes":       0x404f6e79007d0240,
	"ExpectedNNDist(0)":              0x3fb83d4e15416a70,
	"ExpectedNNDist(1)":              0x3fb83d4e15416a70,
	"ExpectedNNDist(10)":             0x3fc3998efc602b08,
	"ExpectedNNDist(100)":            0x3fd500f86a5c3b94,
	"ExpectedNNDist(1000)":           0x3feff9df19ad05fc,
	"ExpectedNNDist(1001)":           0x3feff9df19ad05fc,
	"ExpectedNNDist(500)":            0x3fe57ecdb8056618,
	"NNDistQuantile(0,0.5)":          0x3fb85d0000000000,
	"NNDistQuantile(0,0.9)":          0x3fbdc0b000000000,
	"NNDistQuantile(1,0.5)":          0x3fb85d0000000000,
	"NNDistQuantile(1,0.9)":          0x3fbdc0b000000000,
	"NNDistQuantile(10,0.5)":         0x3fc3915000000000,
	"NNDistQuantile(10,0.9)":         0x3fc54e2800000000,
	"NNDistQuantile(100,0.5)":        0x3fd4f71c00000000,
	"NNDistQuantile(100,0.9)":        0x3fd69f9000000000,
	"NNDistQuantile(1000,0.5)":       0x3feffbcc00000000,
	"NNDistQuantile(1000,0.9)":       0x3fefff5e00000000,
	"NNDistQuantile(1001,0.5)":       0x3feffbcc00000000,
	"NNDistQuantile(1001,0.9)":       0x3fefff5e00000000,
	"NNDistQuantile(500,0.5)":        0x3fe57ef400000000,
	"NNDistQuantile(500,0.9)":        0x3fe5d18200000000,
	"NNL(0).Dists":                   0x40683fcc8de87e71,
	"NNL(0).Nodes":                   0x40299968364fd583,
	"NNL(1).Dists":                   0x40683fcc8de87e71,
	"NNL(1).Nodes":                   0x40299968364fd583,
	"NNL(10).Dists":                  0x406d67447057a04a,
	"NNL(10).Nodes":                  0x402e8c18bdc4c2cd,
	"NNL(100).Dists":                 0x407cc2f51b3621a8,
	"NNL(100).Nodes":                 0x403cc5662e9a5dc0,
	"NNL(1000).Dists":                0x4090a00000000000,
	"NNL(1000).Nodes":                0x4050400000000000,
	"NNL(1001).Dists":                0x4090a00000000000,
	"NNL(1001).Nodes":                0x4050400000000000,
	"NNL(500).Dists":                 0x40903ab4c694957c,
	"NNL(500).Nodes":                 0x404fbd840ca2669f,
	"NNN(0).Dists":                   0x40698fc1cf8cfbd8,
	"NNN(0).Nodes":                   0x402a955492fdb182,
	"NNN(1).Dists":                   0x40698fc1cf8cfbd8,
	"NNN(1).Nodes":                   0x402a955492fdb182,
	"NNN(10).Dists":                  0x406f219ffa690913,
	"NNN(10).Nodes":                  0x402fd76bd211602b,
	"NNN(100).Dists":                 0x407db17a974f1053,
	"NNN(100).Nodes":                 0x403d52bbb051e06c,
	"NNN(1000).Dists":                0x4090a00000000000,
	"NNN(1000).Nodes":                0x4050400000000000,
	"NNN(1001).Dists":                0x4090a00000000000,
	"NNN(1001).Nodes":                0x4050400000000000,
	"NNN(500).Dists":                 0x40900837e806690f,
	"NNN(500).Nodes":                 0x404f53e468a6999a,
	"StatsFree.LevelRadius(1)":       0x3ff0000000000000,
	"StatsFree.LevelRadius(2)":       0x3ff0000000000000,
	"StatsFree.LevelRadius(3)":       0x3fd5cf2d6b6cf83c,
	"StatsFree.NN(0).Dists":          0x0000000000000000,
	"StatsFree.NN(0).Nodes":          0x0000000000000000,
	"StatsFree.NN(1).Dists":          0x406cb34f20a14b5e,
	"StatsFree.NN(1).Nodes":          0x402ddf56339b5570,
	"StatsFree.NN(10).Dists":         0x4071b96dd839b62d,
	"StatsFree.NN(10).Nodes":         0x40322ce4548f26b2,
	"StatsFree.NN(100).Dists":        0x408173941a4b7848,
	"StatsFree.NN(100).Nodes":        0x4041555afa6f7b79,
	"StatsFree.NN(1000).Dists":       0x40909ffffecdbcdf,
	"StatsFree.NN(1000).Nodes":       0x40503ffffed4a55d,
	"StatsFree.NN(1001).Dists":       0x0000000000000000,
	"StatsFree.NN(1001).Nodes":       0x0000000000000000,
	"StatsFree.NN(500).Dists":        0x40909f005e579d3c,
	"StatsFree.NN(500).Nodes":        0x40503f0a97fc3c55,
	"VP.NNCost(0).Dists":             0x0000000000000000,
	"VP.NNCost(0).InternalVisits":    0x0000000000000000,
	"VP.NNCost(0).LeafVisits":        0x0000000000000000,
	"VP.NNCost(1).Dists":             0x4051479ddf7e71d3,
	"VP.NNCost(1).InternalVisits":    0x403280ce8219d0d4,
	"VP.NNCost(1).LeafVisits":        0x402bfc4db453a367,
	"VP.NNCost(10).Dists":            0x40644eb54585f21f,
	"VP.NNCost(10).InternalVisits":   0x404098288f133913,
	"VP.NNCost(10).LeafVisits":       0x4041de5623940bab,
	"VP.NNCost(100).Dists":           0x4083658e5c66f2e8,
	"VP.NNCost(100).InternalVisits":  0x405563425a00f933,
	"VP.NNCost(100).LeafVisits":      0x40627e1a5e1b354c,
	"VP.NNCost(1000).Dists":          0x408f3fff625a7730,
	"VP.NNCost(1000).InternalVisits": 0x405e3fff6765e800,
	"VP.NNCost(1000).LeafVisits":     0x406e5fff66c479e2,
	"VP.NNCost(1001).Dists":          0x0000000000000000,
	"VP.NNCost(1001).InternalVisits": 0x0000000000000000,
	"VP.NNCost(1001).LeafVisits":     0x0000000000000000,
	"VP.NNCost(500).Dists":           0x408f3d16f03abdac,
	"VP.NNCost(500).InternalVisits":  0x405e3df1220f80ab,
	"VP.NNCost(500).LeafVisits":      0x406e5d10ef8834a6,
}
