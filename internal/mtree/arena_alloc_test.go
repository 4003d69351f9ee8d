package mtree

import (
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
)

// The allocation gate. The arena's RangeAppend/NNAppend over an Lp
// vector space must not allocate at all once the pooled scratch and the
// caller's destination slice are warm — that is the contract the CI
// allocation-gate job pins (modeled on the obs zero-cost tests). The
// store-backed k-NN shares that traversal and its pooled scratch, so it
// allocates only its result slice. The testing.AllocsPerOp benchmarks
// alongside make regressions visible with -benchmem. The gates skip in
// -race builds, whose sync.Pool drops items at random.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under -race; the alloc-gate job runs without it")
	}
}

func arenaAllocFixture(tb testing.TB) (*Tree, []metric.Object) {
	tb.Helper()
	d := dataset.PaperClustered(2000, 10, 21)
	tr, err := New(Options{Space: d.Space, PageSize: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.BulkLoad(d.Objects); err != nil {
		tb.Fatal(err)
	}
	if err := tr.FreezeArena(ArenaConfig{}); err != nil {
		tb.Fatal(err)
	}
	return tr, dataset.PaperClusteredQueries(16, 10, 21).Queries
}

func TestArenaRangeZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	tr, qs := arenaAllocFixture(t)
	a := tr.Arena()
	opt := QueryOptions{UseParentDist: true}
	dst := make([]Match, 0, 256)
	// Warm the scratch pool and grow dst to steady state.
	for _, q := range qs {
		var err error
		dst, err = a.RangeAppend(dst[:0], q, 0.5, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = a.RangeAppend(dst[:0], qs[0], 0.5, opt)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("arena Lp range hot path allocates %.1f allocs/op, the gate is 0", allocs)
	}
}

func TestArenaNNZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	tr, qs := arenaAllocFixture(t)
	a := tr.Arena()
	opt := QueryOptions{UseParentDist: true}
	dst := make([]Match, 0, 64)
	for _, q := range qs {
		var err error
		dst, err = a.NNAppend(dst[:0], q, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = a.NNAppend(dst[:0], qs[0], 10, opt)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("arena NN hot path allocates %.1f allocs/op, the gate is 0", allocs)
	}
}

// storeAllocFixture is arenaAllocFixture's tree left unfrozen: queries
// run through the in-memory node store.
func storeAllocFixture(tb testing.TB) (*Tree, []metric.Object) {
	tb.Helper()
	tr, qs := arenaAllocFixture(tb)
	tr.ThawArena()
	return tr, qs
}

// TestStoreNNAllocs pins the store-backed k-NN: a memory-mode Tree.NN
// allocates its result slice and nothing else (priority queue and
// result heap come from the pooled scratch).
func TestStoreNNAllocs(t *testing.T) {
	skipUnderRace(t)
	tr, qs := storeAllocFixture(t)
	opt := QueryOptions{UseParentDist: true}
	for _, q := range qs {
		if _, err := tr.NN(q, 10, opt); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tr.NN(qs[0], 10, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("store k-NN allocates %.1f allocs/op, the ceiling is 1 (the result slice)", allocs)
	}
}

func BenchmarkStoreNN(b *testing.B) {
	tr, qs := storeAllocFixture(b)
	opt := QueryOptions{UseParentDist: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.NN(qs[i%len(qs)], 10, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArenaRangeAppend(b *testing.B) {
	tr, qs := arenaAllocFixture(b)
	a := tr.Arena()
	opt := QueryOptions{UseParentDist: true}
	dst := make([]Match, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = a.RangeAppend(dst[:0], qs[i%len(qs)], 0.5, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArenaNNAppend(b *testing.B) {
	tr, qs := arenaAllocFixture(b)
	a := tr.Arena()
	opt := QueryOptions{UseParentDist: true}
	dst := make([]Match, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = a.NNAppend(dst[:0], qs[i%len(qs)], 10, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArenaVsStoreRange is the throughput headline: the same query
// served by the store-backed traversal and by the arena.
func BenchmarkArenaVsStoreRange(b *testing.B) {
	d := dataset.PaperClustered(2000, 10, 21)
	qs := dataset.PaperClusteredQueries(16, 10, 21).Queries
	opt := QueryOptions{UseParentDist: true}

	store, err := New(Options{Space: d.Space, PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if err := store.BulkLoad(d.Objects); err != nil {
		b.Fatal(err)
	}
	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := store.Range(qs[i%len(qs)], 0.5, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := store.FreezeArena(ArenaConfig{}); err != nil {
		b.Fatal(err)
	}
	a := store.Arena()
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]Match, 0, 256)
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = a.RangeAppend(dst[:0], qs[i%len(qs)], 0.5, opt)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
