package core

import (
	"math"
	"sync"
	"testing"

	"mcost/internal/dataset"
)

// TestNNMemoConcurrentMixedK prices one cold model from many goroutines
// at once, each walking a different rotation of a mixed k list: every
// answer must equal, bit for bit, what a fresh model computes
// sequentially, however the first computations for each k race. Run
// under -race this also checks the memo's publication.
func TestNNMemoConcurrentMixedK(t *testing.T) {
	fx := newFixture(t, dataset.PaperClustered(600, 6, 1202), 2048)
	ks := []int{-3, 0, 1, 2, 5, 10, 33, 100, 300, 599, 600, 601, 1 << 20}
	type answer struct {
		l, n CostEstimate
		dist float64
	}
	ref, err := NewMTreeModel(fx.model.F(), fx.model.stats)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]answer, len(ks))
	for _, k := range ks {
		want[k] = answer{ref.NNL(k), ref.NNN(k), ref.ExpectedNNDist(k)}
	}

	m, err := NewMTreeModel(fx.model.F(), fx.model.stats)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ks {
				k := ks[(i+w)%len(ks)]
				got := answer{m.NNL(k), m.NNN(k), m.ExpectedNNDist(k)}
				if !sameAnswer(got.l, want[k].l) || !sameAnswer(got.n, want[k].n) ||
					math.Float64bits(got.dist) != math.Float64bits(want[k].dist) {
					t.Errorf("worker %d, k=%d: got %+v, want %+v", w, k, got, want[k])
				}
			}
		}(w)
	}
	wg.Wait()
	// Clamped k share one memo entry: k <= 0 is k = 1, k > n is k = n.
	if got := len(*m.nnl.tab.Load()); got != 9 {
		t.Errorf("NNL memo holds %d entries, want 9 (one per clamped k)", got)
	}
}

func sameAnswer(a, b CostEstimate) bool {
	return math.Float64bits(a.Nodes) == math.Float64bits(b.Nodes) &&
		math.Float64bits(a.Dists) == math.Float64bits(b.Dists)
}

// TestWarmNNLZeroAllocs is the memo's allocation gate: once a k has been
// priced, pricing it again — NNL, NNN or ExpectedNNDist — performs zero
// heap allocations. The serving layer calls NNL several times per k-NN
// request.
func TestWarmNNLZeroAllocs(t *testing.T) {
	fx := newFixture(t, dataset.PaperClustered(400, 6, 1203), 2048)
	m := fx.model
	for _, k := range []int{1, 10, 400} {
		m.NNL(k)
		m.NNN(k)
		m.ExpectedNNDist(k)
	}
	for name, f := range map[string]func(){
		"NNL":            func() { m.NNL(10) },
		"NNN":            func() { m.NNN(10) },
		"ExpectedNNDist": func() { m.ExpectedNNDist(10) },
		"NNL(clamped)":   func() { m.NNL(1 << 20) },
	} {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("warm %s: %v allocs per call, want 0", name, allocs)
		}
	}
}
