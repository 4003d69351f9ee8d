package mcost

import (
	"testing"

	"mcost/internal/core"
	"mcost/internal/recal"
)

// TestPriceNNTracksRefits pins the k-NN memo's lifetime rule: memos live
// on one immutable model and go with it. After RefreshModel, and after a
// recalibration refit, PriceNN must equal a freshly built model's
// integral over the index's current F̂ and statistics — never a value
// memoized on the model it replaced.
func TestPriceNNTracksRefits(t *testing.T) {
	const k = 5
	space := VectorSpace("L2", 4)
	objs := randomVectors(300, 4, 11)
	ix, err := Build(space, objs, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// fresh prices k on a model built now from the index's live F̂ and
	// statistics, sharing no memo with the index's own.
	fresh := func() CostEstimate {
		t.Helper()
		m, err := core.NewMTreeModel(ix.f, ix.stats)
		if err != nil {
			t.Fatal(err)
		}
		return m.NNL(k)
	}
	check := func(stage string, stale CostEstimate, correct func(CostEstimate) CostEstimate) {
		t.Helper()
		want := correct(fresh())
		if got := ix.PriceNN(k); got != want {
			t.Fatalf("%s: PriceNN(%d) = %+v, want the refit model's %+v", stage, k, got, want)
		}
		if want == stale {
			t.Fatalf("%s: PriceNN(%d) stayed at %+v across the refit: a memo outlived its model, or the refit did not move the price", stage, k, stale)
		}
	}
	identity := func(e CostEstimate) CostEstimate { return e }

	stale := ix.PriceNN(k) // memoize k on the build-time model
	for _, o := range randomVectors(300, 4, 12) {
		if _, err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if ix.PriceNN(k) != stale {
		t.Fatal("writes without a refit must keep the model, and its price")
	}
	if err := ix.RefreshModel(); err != nil {
		t.Fatal(err)
	}
	check("RefreshModel", stale, identity)

	const every = 16
	if err := ix.EnableRecalibration(recal.Config{RefreshEvery: every, Seed: 3}, objs); err != nil {
		t.Fatal(err)
	}
	before := ix.model
	stale = ix.PriceNN(k)
	for _, o := range randomVectors(every, 4, 13) {
		if _, err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if ix.model == before {
		t.Fatalf("%d writes with RefreshEvery %d did not refit the model", every, every)
	}
	check("recalibration refit", stale, ix.rc.CorrectNN)
}
