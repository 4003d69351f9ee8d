package experiments

import (
	"fmt"
	"time"

	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

// Bench9 benchmarks the arena node layout against the store-backed
// engines on the BENCH_4 workload (clustered vectors, the radius the
// model picks for a ~10-object result, k = 10):
//
//   - loop        — per-query traversal over the in-memory node store
//   - loop-paged  — per-query traversal over the checksummed paged
//     stack with an LRU page cache: the production storage engine the
//     arena read path replaces
//   - arena       — per-query traversal over the frozen arena node slab
//   - arena-mmap  — the same slabs served from a memory-mapped file
//   - arena-batch — shared-traversal batches over the arena
//
// Every engine's per-query result sets are checked for exact equality
// (OIDs and distances) against the loop engine before its row is
// reported — the arena is an optimization, never a semantic. QPS and
// the speedup columns are wall-clock and vary run to run; the cost
// columns are deterministic for a fixed Config.

// Bench9Row is one engine/kind measurement.
type Bench9Row struct {
	Engine  string `json:"engine"`
	Kind    string `json:"kind"` // range | nn
	Queries int    `json:"queries"`
	Batch   int    `json:"batch"` // 0 for per-query engines
	// QPS, SpeedupVsLoop, and SpeedupVsPaged are wall-clock — the
	// nondeterministic columns.
	QPS               float64 `json:"queries_per_sec"`
	SpeedupVsLoop     float64 `json:"speedup_vs_loop"`
	SpeedupVsPaged    float64 `json:"speedup_vs_paged"`
	NodeReadsPerQuery float64 `json:"node_reads_per_query"`
	DistCalcsPerQuery float64 `json:"dist_calcs_per_query"`
	ResultsPerQuery   float64 `json:"results_per_query"`
}

// Bench9Result is the full layout comparison.
type Bench9Result struct {
	Radius float64     `json:"radius"`
	K      int         `json:"k"`
	Rows   []Bench9Row `json:"rows"`
}

func (r *Bench9Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("BENCH 9: arena layout vs store engines (range r=%.3f, nn k=%d)", r.Radius, r.K),
		Columns: []string{"engine", "kind", "queries", "batch", "qps", "vs loop", "vs paged", "nodes/q", "dists/q", "results/q"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Engine, row.Kind,
			fmt.Sprintf("%d", row.Queries),
			fmt.Sprintf("%d", row.Batch),
			fmt.Sprintf("%.0f", row.QPS),
			fmt.Sprintf("%.2fx", row.SpeedupVsLoop),
			fmt.Sprintf("%.2fx", row.SpeedupVsPaged),
			f1(row.NodeReadsPerQuery), f1(row.DistCalcsPerQuery), f1(row.ResultsPerQuery),
		})
	}
	return t
}

// bench9Engine is one layout under test.
type bench9Engine struct {
	name  string
	batch int
	run   func(qs []metric.Object, kind string) ([][]mtree.Match, error)
	costs func() (int64, int64)
	reset func()
}

// RunBench9 executes the layout comparison.
func RunBench9(cfg Config) (*Bench9Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Batch == 0 {
		cfg.Batch = 32
	}
	d := dataset.PaperClustered(cfg.N, 10, cfg.Seed)

	// The loop engine and the model that picks the workload radius.
	memCfg := cfg
	memCfg.Paged, memCfg.CachePages, memCfg.Faults = false, 0, nil
	mem, err := buildFor(d, memCfg)
	if err != nil {
		return nil, err
	}
	// The production storage engine: checksummed pages behind an LRU.
	pagedCfg := cfg
	pagedCfg.Paged, pagedCfg.Faults = true, nil
	if pagedCfg.CachePages == 0 {
		pagedCfg.CachePages = 256
	}
	paged, err := buildFor(d, pagedCfg)
	if err != nil {
		return nil, err
	}
	// Two frozen trees: in-memory slabs and the mmap'd slab file.
	arena, err := buildFor(d, memCfg)
	if err != nil {
		return nil, err
	}
	if err := arena.tr.FreezeArena(mtree.ArenaConfig{}); err != nil {
		return nil, err
	}
	mapped, err := buildFor(d, memCfg)
	if err != nil {
		return nil, err
	}
	if err := mapped.tr.FreezeArena(mtree.ArenaConfig{Mmap: true}); err != nil {
		return nil, err
	}

	queries := dataset.PaperClusteredQueries(cfg.Queries, 10, cfg.Seed).Queries
	radius := mem.model.RadiusForExpectedObjects(10)
	const k = 10
	qopt := mtree.QueryOptions{UseParentDist: true}

	perQuery := func(tr *mtree.Tree) func(qs []metric.Object, kind string) ([][]mtree.Match, error) {
		return func(qs []metric.Object, kind string) ([][]mtree.Match, error) {
			out := make([][]mtree.Match, len(qs))
			for i, q := range qs {
				var err error
				if kind == "range" {
					out[i], err = tr.Range(q, radius, qopt)
				} else {
					out[i], err = tr.NN(q, k, qopt)
				}
				if err != nil {
					return nil, err
				}
			}
			return out, nil
		}
	}
	engines := []bench9Engine{
		{name: "loop", run: perQuery(mem.tr),
			costs: func() (int64, int64) { return mem.tr.NodeReads(), mem.tr.DistanceCount() },
			reset: mem.tr.ResetCounters},
		{name: "loop-paged", run: perQuery(paged.tr),
			costs: func() (int64, int64) { return paged.tr.NodeReads(), paged.tr.DistanceCount() },
			reset: paged.tr.ResetCounters},
		{name: "arena", run: perQuery(arena.tr),
			costs: func() (int64, int64) { return arena.tr.NodeReads(), arena.tr.DistanceCount() },
			reset: arena.tr.ResetCounters},
		{name: "arena-mmap", run: perQuery(mapped.tr),
			costs: func() (int64, int64) { return mapped.tr.NodeReads(), mapped.tr.DistanceCount() },
			reset: mapped.tr.ResetCounters},
		{name: "arena-batch", batch: cfg.Batch,
			run: func(qs []metric.Object, kind string) ([][]mtree.Match, error) {
				out := make([][]mtree.Match, 0, len(qs))
				for lo := 0; lo < len(qs); lo += cfg.Batch {
					hi := lo + cfg.Batch
					if hi > len(qs) {
						hi = len(qs)
					}
					var sets [][]mtree.Match
					var err error
					if kind == "range" {
						sets, err = arena.tr.RangeBatch(qs[lo:hi], radius, qopt)
					} else {
						sets, err = arena.tr.NNBatch(qs[lo:hi], k, qopt)
					}
					if err != nil {
						return nil, err
					}
					out = append(out, sets...)
				}
				return out, nil
			},
			costs: func() (int64, int64) { return arena.tr.NodeReads(), arena.tr.DistanceCount() },
			reset: arena.tr.ResetCounters},
	}

	res := &Bench9Result{Radius: radius, K: k}
	for _, kind := range []string{"range", "nn"} {
		var reference [][]mtree.Match
		var loopQPS, pagedQPS float64
		for _, eng := range engines {
			eng.reset()
			start := time.Now()
			sets, err := eng.run(queries, kind)
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench9 %s/%s: %w", eng.name, kind, err)
			}
			if eng.name == "loop" {
				reference = sets
			} else if err := bench9SameResults(reference, sets); err != nil {
				return nil, fmt.Errorf("bench9 %s/%s diverges from loop: %w", eng.name, kind, err)
			}
			reads, dists := eng.costs()
			nq := float64(len(queries))
			qps := 0.0
			if elapsed > 0 {
				qps = nq / elapsed.Seconds()
			}
			switch eng.name {
			case "loop":
				loopQPS = qps
			case "loop-paged":
				pagedQPS = qps
			}
			results := 0
			for _, ms := range sets {
				results += len(ms)
			}
			res.Rows = append(res.Rows, Bench9Row{
				Engine:            eng.name,
				Kind:              kind,
				Queries:           len(queries),
				Batch:             eng.batch,
				QPS:               qps,
				NodeReadsPerQuery: float64(reads) / nq,
				DistCalcsPerQuery: float64(dists) / nq,
				ResultsPerQuery:   float64(results) / nq,
			})
		}
		// Both baselines are known only after the sweep; fill the
		// speedup columns for every row of this kind.
		for i := len(res.Rows) - len(engines); i < len(res.Rows); i++ {
			if loopQPS > 0 {
				res.Rows[i].SpeedupVsLoop = res.Rows[i].QPS / loopQPS
			}
			if pagedQPS > 0 {
				res.Rows[i].SpeedupVsPaged = res.Rows[i].QPS / pagedQPS
			}
		}
	}
	return res, nil
}

// bench9SameResults demands exact equality — same OIDs, same distances,
// same order — between an engine's result sets and the loop engine's.
func bench9SameResults(want, got [][]mtree.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d result sets, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("query %d: %d matches, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j].OID != want[i][j].OID || got[i][j].Distance != want[i][j].Distance {
				return fmt.Errorf("query %d match %d: (%d, %v), want (%d, %v)",
					i, j, got[i][j].OID, got[i][j].Distance, want[i][j].OID, want[i][j].Distance)
			}
		}
	}
	return nil
}
