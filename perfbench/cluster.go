package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"mcost/internal/shard"
)

// cluster-nn: one loopback client in a closed loop against the
// scatter-gather router over three mcost-serve shard nodes (pivot
// assignment), two k-NN to one range query, uniform over a 1,000-query
// pool. The only workload that runs the router: per-shard pricing,
// scatter, merge. k-NN fans out to every shard at full k, and takes
// about 98% of the client's time.
//
// One client, not two: with two, a range request mostly ran beside a
// k-NN request whose per-shard pricing held both vCPUs, and its median
// depended on how the two happened to overlap. On a 2-vCPU VM, five
// seeds spread range_p50 by 16% of its median with two clients and by
// 7% with one, measured back to back.
//
// One range query in three, not one in five: a k-NN request costs some
// 60 range requests, so at one in five a 20-second run collected about
// 130 range samples against 520 k-NN ones, and range_p50 spread more
// than nn_p50 from seed to seed. At one in three a 12-second run
// collects about 170 and 350.

const clusterPool = 1000

// clusterSetups is how many times a run sets the tier up and measures
// it, for an equal share of the run each; setup_s is the median set-up
// time. clusterWarm is each tier's untimed warm-up.
const (
	clusterSetups = 5
	clusterWarm   = 500 * time.Millisecond
)

// clusterOp draws one operation of the mix: k-NN two times in three.
func clusterOp(rng *rand.Rand) (opKind, int) {
	kind := opNN
	if rng.Intn(3) == 0 {
		kind = opRange
	}
	return kind, rng.Intn(clusterPool)
}

func runClusterNN(cfg runConfig) (*report, error) {
	in := makeInputs(datasetN, cfg.seed, clusterPool, 0)
	radius, err := modelRadius(in, nnK)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return clusterTraced(cfg, in, radius)
	}

	rep := newReport()
	var (
		orc     *oracle
		bodies  queryBodies
		setups  []float64
		rec     = &recorder{}
		elapsed time.Duration
	)
	seg := time.Duration(cfg.seconds * float64(time.Second) / clusterSetups)
	for i := 0; i < clusterSetups; i++ {
		start := time.Now()
		c, err := startCluster(in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			rep.metrics["mem_mb"] = heapMB()
			orc = buildOracle(in, radius, nnK)
			bodies = encodeQueries(in.pool, radius, nnK)
		}
		r, e := clusterSegment(c, seg, cfg.seed+int64(i)*104729, bodies, orc, rep)
		rec.merge(r)
		elapsed += e
	}
	rep.metrics["setup_s"] = median(setups)
	rec.fill(rep)
	rep.metrics["ops_per_s"] = float64(rec.total()) / elapsed.Seconds()
	rep.metrics["ok_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	return rep, nil
}

// clusterSegment warms a fresh tier up, measures it for d with one
// client and closes it. Each run measures clusterSetups tiers in turn,
// so that the state one tier happens to start in (where its slabs and
// goroutines land, which connections the runtime reuses) averages out.
func clusterSegment(c *cluster, d time.Duration, seed int64, bodies queryBodies, orc *oracle, rep *report) (*recorder, time.Duration) {
	defer c.close()
	client := newClient(1)
	defer closeClient(client)
	op := func(rng *rand.Rand) (opKind, time.Duration, outcome) {
		kind, qi := clusterOp(rng)
		lat, o, _ := checkedQuery(client, c.url(), kind, qi, bodies, orc)
		return kind, lat, o
	}
	warm, _ := closedLoop(1, clusterWarm, seed+1, op)
	count(rep, warm)
	return closedLoop(1, d, seed, op)
}

// clusterTraced is the traced cluster-nn run. It uses one client, so
// every shard-node call nests inside the router request that caused it.
// It reports the tracing overhead (alternating slices against an
// untraced tier), the router's per-request node reads for a fixed query
// sample next to the in-process sharded set's on the same queries and
// assignment (the ordered reference), and the router, node-server and
// engine stages of a traced closed loop.
func clusterTraced(cfg runConfig, in inputs, radius float64) (*report, error) {
	rep := newReport()
	m := rep.metrics
	plain, err := startCluster(in, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	t := newTracer()
	c, err := startCluster(in, t)
	if err != nil {
		return nil, err
	}
	defer c.close()
	m["mcost.build_s"] = c.build.Seconds()
	m["router.boot_s"] = c.boot.Seconds()
	m["metric.ns_per_dist"] = kernelNSPerDist(in)

	orc := buildOracle(in, radius, nnK)
	bodies := encodeQueries(in.pool, radius, nnK)
	client := newClient(1)
	defer closeClient(client)
	if m["client.rtt_us"], err = healthRTT(client, c.url(), 200); err != nil {
		return nil, err
	}
	loop := func(url string, d time.Duration, seed int64, each func(opKind, *wireResponse)) (*recorder, time.Duration) {
		return closedLoop(1, d, seed, func(rng *rand.Rand) (opKind, time.Duration, outcome) {
			kind, qi := clusterOp(rng)
			lat, o, w := checkedQuery(client, url, kind, qi, bodies, orc)
			if each != nil && o == outOK {
				each(kind, w)
			}
			return kind, lat, o
		})
	}

	slice := time.Duration(cfg.seconds * float64(time.Second) / 8)
	var plainOps, tracedOps int64
	var plainT, tracedT time.Duration
	for round := 0; round < 4; round++ {
		r, d := loop(plain.url(), slice, cfg.seed+int64(round), nil)
		count(rep, r)
		plainOps, plainT = plainOps+r.total(), plainT+d
		r, d = loop(c.url(), slice, cfg.seed+int64(round), nil)
		count(rep, r)
		tracedOps, tracedT = tracedOps+r.total(), tracedT+d
	}
	m["trace.overhead_frac"] = ratio(float64(plainOps)/plainT.Seconds(), float64(tracedOps)/tracedT.Seconds()) - 1

	// The reference: the same partition built in process.
	set, err := shard.Build(in.space, in.objects, shard.Options{
		Shards: clusterShards.Shards, Assign: clusterShards.Assign, Seed: datasetSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("building the reference shard set: %w", err)
	}
	owner := make(map[uint64]int, len(in.objects))
	for i, sh := range set.Shards() {
		for _, oid := range sh.OIDs {
			owner[oid] = i
		}
	}
	if err := clusterNodeCounts(t, client, c.url(), set, in, bodies, orc, rep); err != nil {
		return nil, err
	}

	t.reset()
	var predNodes, predDists, useful, queried float64
	rec, _ := loop(c.url(), time.Duration(cfg.seconds*float64(time.Second)), cfg.seed, func(kind opKind, w *wireResponse) {
		predNodes += w.Predicted.NodeReads
		predDists += w.Predicted.DistCalcs
		contributed := map[int]bool{}
		for _, m := range w.Matches {
			contributed[owner[m.OID]] = true
		}
		useful += float64(len(contributed))
		queried += float64(w.ShardsQueried)
	})
	count(rep, rec)
	tot := float64(rec.total())
	m["server.shed_frac"] = float64(rec.tally[outShed]) / tot
	m["server.partial_frac"] = float64(rec.tally[outPartial]) / tot
	m["router.useful_shard_frac"] = ratio(useful, queried)
	m["client.range_p99_us"] = quantile(rec.lat[opRange], 0.99)
	m["client.nn_p99_us"] = quantile(rec.lat[opNN], 0.99)

	layerStages(t, "node", m)
	m["router.range_handler_us"] = median(t.series("router/v1/range"))
	m["router.nn_handler_us"] = median(t.series("router/v1/nn"))
	m["core.node_ratio"] = ratio(sum(t.series("node.exec_range_nodes"))+sum(t.series("node.exec_nn_nodes")), predNodes)
	m["core.dist_ratio"] = ratio(sum(t.series("node.exec_range_dists"))+sum(t.series("node.exec_nn_dists")), predDists)
	self, calls := routerSelf(t.spansOf("router"), t.spansOf("node"))
	m["router.self_us"] = median(self)
	m["router.shard_calls_per_query"] = calls
	return rep, nil
}

// clusterNodeCounts sends the first 200 pool queries as k-NN through
// the traced router one at a time and reports the node reads and
// distance computations the shard nodes spent per request, then runs
// the same queries through set, the in-process shard.Set built with the
// nodes' assignment, which visits shards in cost order and stops early.
func clusterNodeCounts(t *tracer, client *http.Client, url string, set *shard.Set, in inputs, bodies queryBodies, orc *oracle, rep *report) error {
	const n = 200
	rec := &recorder{}
	defer count(rep, rec)
	t.reset()
	for qi := 0; qi < n; qi++ {
		lat, o, _ := checkedQuery(client, url, opNN, qi, bodies, orc)
		rec.add(opNN, lat, o)
	}
	rep.metrics["router.nn_nodes"] = sum(t.series("node.exec_nn_nodes")) / n
	rep.metrics["router.nn_dists"] = sum(t.series("node.exec_nn_dists")) / n

	var nodes int64
	for qi := 0; qi < n; qi++ {
		set.ResetCosts()
		start := time.Now()
		ms, err := set.NN(in.pool[qi], nnK, shard.QueryOptions{UseParentDist: true, Workers: 1})
		if err != nil {
			return err
		}
		o := outOK
		if !canonical(ms).equal(orc.nn[qi]) {
			o = outWrong
		}
		rec.add(opNN, time.Since(start), o)
		r, _ := set.Costs()
		nodes += r
	}
	rep.metrics["shard.nn_nodes"] = float64(nodes) / n
	return nil
}

// routerSelf returns, per router query span, the part of its interval
// not covered by the shard-node query spans inside it, and the mean
// number of node calls per router query. It relies on one client: with
// a single router request in flight, every node call belongs to it.
func routerSelf(router, nodes []span) ([]float64, float64) {
	isQuery := func(s span) bool { return s.path == "/v1/range" || s.path == "/v1/nn" }
	var rq, nq []span
	for _, s := range router {
		if isQuery(s) {
			rq = append(rq, s)
		}
	}
	for _, s := range nodes {
		if isQuery(s) {
			nq = append(nq, s)
		}
	}
	byStart := func(ss []span) {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start.Before(ss[j].start) })
	}
	byStart(rq)
	byStart(nq)
	self := make([]float64, 0, len(rq))
	calls, j := 0, 0
	for _, r := range rq {
		for j < len(nq) && nq[j].start.Before(r.start) {
			j++
		}
		covered := time.Duration(0)
		var curStart, curEnd time.Time
		for ; j < len(nq) && !nq[j].start.After(r.end); j++ {
			calls++
			s, e := nq[j].start, nq[j].end
			if e.After(r.end) {
				e = r.end
			}
			if curEnd.IsZero() || s.After(curEnd) {
				covered += curEnd.Sub(curStart)
				curStart, curEnd = s, e
			} else if e.After(curEnd) {
				curEnd = e
			}
		}
		covered += curEnd.Sub(curStart)
		self = append(self, micros(r.end.Sub(r.start)-covered))
	}
	return self, ratio(float64(calls), float64(len(rq)))
}
