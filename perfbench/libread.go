package main

import (
	"math/rand"
	"time"

	"mcost"
	"mcost/internal/metric"
)

// lib-read: one in-process caller in a closed loop over the facade,
// Index.Range and Index.NN half and half, queries drawn uniformly from
// a 1,000-query pool. Read-only, so the mtree traversal and the metric
// kernels do nearly all the work: no pricing, HTTP or cache runs. It is
// the control for every serving-layer change. BENCHMARK.json leaves it
// out for now: every run repeats the index build (about 21 s on an idle
// 2-vCPU Xeon, over 50 s under host contention), and the run budget
// holds one such workload, serve-churn.

const libPool = 1000

// libQuery runs one facade query of the pool and reports whether the
// answer matches the oracle exactly.
func libQuery(ix *mcost.Index, in inputs, orc *oracle, radius float64, kind opKind, qi int) (bool, error) {
	var (
		ms   []mcost.Match
		err  error
		want answer
	)
	if kind == opRange {
		ms, err = ix.Range(in.pool[qi], radius)
		want = orc.rng[qi]
	} else {
		ms, err = ix.NN(in.pool[qi], nnK)
		want = orc.nn[qi]
	}
	if err != nil {
		return false, err
	}
	return canonical(ms).equal(want), nil
}

// libSetup generates lib-read's inputs over n objects and builds the
// index, returning the build time.
func libSetup(n int, seed int64) (inputs, *mcost.Index, time.Duration, error) {
	in := makeInputs(n, seed, libPool, 0)
	start := time.Now()
	ix, err := mcost.Build(in.space, in.objects, buildOptions())
	return in, ix, time.Since(start), err
}

func runLibRead(cfg runConfig) (*report, error) {
	in, ix, setup, err := libSetup(datasetN, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.metrics["setup_s"] = setup.Seconds()
	rep.metrics["mem_mb"] = heapMB()

	radius := ix.ExpectedNNDistance(nnK)
	orc := buildOracle(in, radius, nnK)
	if cfg.trace {
		return rep, libReadTraced(cfg, ix, in, orc, radius, setup, rep)
	}

	// Untimed warm-up: one pass over the pool in both kinds.
	for qi := range in.pool {
		for _, k := range []opKind{opRange, opNN} {
			if _, err := libQuery(ix, in, orc, radius, k, qi); err != nil {
				return nil, err
			}
		}
	}

	rec := &recorder{}
	rng := rand.New(rand.NewSource(cfg.seed))
	begin := time.Now()
	deadline := begin.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		kind, qi := opKind(rng.Intn(2)), rng.Intn(len(in.pool))
		t0 := time.Now()
		ok, err := libQuery(ix, in, orc, radius, kind, qi)
		lat := time.Since(t0)
		o := outOK
		if err != nil {
			o = outError
		} else if !ok {
			o = outWrong
		}
		rec.add(kind, lat, o)
	}
	elapsed := time.Since(begin)
	rec.fill(rep)
	rep.metrics["ops_per_s"] = float64(rec.total()) / elapsed.Seconds()
	rep.metrics["ok_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	return rep, nil
}

// libReadTraced measures lib-read layer by layer: the distance kernel
// alone, the facade's per-query node reads and distance computations
// over the whole pool (exact, seed-determined), per-call times and heap
// allocations of a traced loop, the tracing overhead against an
// untraced loop of equal length, and one timed model refit.
func libReadTraced(cfg runConfig, ix *mcost.Index, in inputs, orc *oracle, radius float64, setup time.Duration, rep *report) error {
	m := rep.metrics
	m["metric.ns_per_dist"] = kernelNSPerDist(in)

	c, err := poolCosts(ix, len(in.pool), func(kind opKind, qi int) (bool, error) {
		return libQuery(ix, in, orc, radius, kind, qi)
	}, rep)
	if err != nil {
		return err
	}
	c.fill(m)
	m["core.node_ratio"] = ratio(c.rangeNodes+c.nnNodes, float64(len(in.pool))*(ix.PriceRange(radius).Nodes+ix.PriceNN(nnK).Nodes))
	m["core.dist_ratio"] = ratio(c.rangeDists+c.nnDists, float64(len(in.pool))*(ix.PriceRange(radius).Dists+ix.PriceNN(nnK).Dists))

	// Alternate untraced and traced slices of the same closed loop so
	// drift in machine speed hits both alike.
	half := time.Duration(cfg.seconds * float64(time.Second) / 8)
	rng := rand.New(rand.NewSource(cfg.seed))
	var plainOps, tracedOps int
	var plainT, tracedT time.Duration
	var lat [2][]float64
	for round := 0; round < 4; round++ {
		n, d := libLoop(ix, in, radius, rng, half, nil)
		plainOps, plainT = plainOps+n, plainT+d
		n, d = libLoop(ix, in, radius, rng, half, &lat)
		tracedOps, tracedT = tracedOps+n, tracedT+d
	}
	m["mtree.range_us"] = median(lat[opRange])
	m["mtree.nn_us"] = median(lat[opNN])
	m["client.range_p99_us"] = quantile(lat[opRange], 0.99)
	m["client.nn_p99_us"] = quantile(lat[opNN], 0.99)
	m["trace.overhead_frac"] = ratio(float64(plainOps)/plainT.Seconds(), float64(tracedOps)/tracedT.Seconds()) - 1
	m["mtree.allocs_per_query"] = facadeAllocs(ix, in.pool[:200], radius)

	m["mcost.build_s"] = setup.Seconds()
	refit, err := timedRefit(ix)
	m["mcost.refit_s"] = refit
	return err
}

// timedRefit times one Index.RefreshModel, in seconds: the tree
// statistics, the model fit and the planner profile, the work a
// recalibration refit repeats inside the server's write lock.
func timedRefit(ix *mcost.Index) (float64, error) {
	start := time.Now()
	err := ix.RefreshModel()
	return time.Since(start).Seconds(), err
}

// libLoop runs the lib-read closed loop for d without checking answers.
// With lat non-nil it is the traced variant: each call is timed and its
// node-read and distance counters are read at the boundary.
func libLoop(ix *mcost.Index, in inputs, radius float64, rng *rand.Rand, d time.Duration, lat *[2][]float64) (int, time.Duration) {
	ops := 0
	begin := time.Now()
	deadline := begin.Add(d)
	for time.Now().Before(deadline) {
		kind, q := opKind(rng.Intn(2)), in.pool[rng.Intn(len(in.pool))]
		var t0 time.Time
		if lat != nil {
			t0 = time.Now()
		}
		if kind == opRange {
			_, _ = ix.Range(q, radius) // answers are checked by poolCosts
		} else {
			_, _ = ix.NN(q, nnK)
		}
		if lat != nil {
			ix.Costs()
			lat[kind] = append(lat[kind], micros(time.Since(t0)))
		}
		ops++
	}
	return ops, time.Since(begin)
}

// poolCostsResult holds summed node reads and distance computations of
// one pass over a query sample, per kind.
type poolCostsResult struct {
	n                      int
	rangeNodes, rangeDists float64
	nnNodes, nnDists       float64
}

func (c poolCostsResult) fill(m map[string]float64) {
	n := float64(c.n)
	m["mtree.range_nodes"] = c.rangeNodes / n
	m["mtree.range_dists"] = c.rangeDists / n
	m["mtree.nn_nodes"] = c.nnNodes / n
	m["mtree.nn_dists"] = c.nnDists / n
}

// poolCosts runs query for the first n pool queries once in each kind,
// reading the index's cost counters around every call. query executes
// one facade call and checks its answer; the outcomes are added to rep.
func poolCosts(ix *mcost.Index, n int, query func(kind opKind, qi int) (bool, error), rep *report) (poolCostsResult, error) {
	c := poolCostsResult{n: n}
	rec := &recorder{}
	defer count(rep, rec)
	for qi := 0; qi < n; qi++ {
		for _, kind := range []opKind{opRange, opNN} {
			ix.ResetCosts()
			start := time.Now()
			ok, err := query(kind, qi)
			if err != nil {
				return c, err
			}
			o := outOK
			if !ok {
				o = outWrong
			}
			rec.add(kind, time.Since(start), o)
			nodes, dists := ix.Costs()
			if kind == opRange {
				c.rangeNodes += float64(nodes)
				c.rangeDists += float64(dists)
			} else {
				c.nnNodes += float64(nodes)
				c.nnDists += float64(dists)
			}
		}
	}
	return c, nil
}

// facadeAllocs is the mean number of heap allocations of one facade
// Range or NN call over qs, both kinds once per query.
func facadeAllocs(ix *mcost.Index, qs []mcost.Object, radius float64) float64 {
	a0 := mallocs()
	for _, q := range qs {
		_, _ = ix.Range(q, radius) // answers are checked elsewhere
		_, _ = ix.NN(q, nnK)
	}
	return float64(mallocs()-a0) / float64(2*len(qs))
}

// kernelSink keeps the timed kernel calls observable.
var kernelSink float64

// kernelNSPerDist times the space's slab kernel (the one the arena
// traversal calls) over the workload's own data: the first 200 pool
// queries against every indexed object, best of three passes.
func kernelNSPerDist(in inputs) float64 {
	kern := metric.VecKernelFor(in.space.Name)
	dim := len(in.objects[0].(mcost.Vector))
	slab := make([]float64, 0, len(in.objects)*dim)
	for _, o := range in.objects {
		slab = append(slab, o.(mcost.Vector)...)
	}
	qs := in.pool[:200]
	best := time.Duration(1<<63 - 1)
	var sink float64
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for _, q := range qs {
			qv := q.(mcost.Vector)
			for off := 0; off < len(slab); off += dim {
				sink += kern(qv, slab[off:off+dim])
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	kernelSink = sink
	return float64(best.Nanoseconds()) / float64(len(qs)*len(in.objects))
}
