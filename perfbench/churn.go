package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcost"
)

// serve-churn: an open loop at a fixed offered rate over at most two
// loopback connections against the server as mcost-serve runs it with
// -recal and a result cache. Half the operations are range queries, a
// quarter k-NN, a fifth inserts and a twentieth deletes of the run's own
// inserts; queries are drawn uniformly from a 10,000-query pool.
// Latencies count from each request's due time, so a stall charges
// every request due while it lasts.
//
// The recalibrator refits the model every 128 writes inside the
// server's write lock. An untimed warm-up issues 100 writes (the first
// one thaws the arena), and the measured schedule's 100 writes then
// cross exactly one refit, at its 28th write. The schedule is 400
// operations spread over the run, which keeps the two connections about
// a tenth busy on an idle 2-vCPU machine, so a host that runs the
// benchmark three times slower still does not queue.

const churnPool = 10_000

// churnBlock is one 20-operation block of the measured mix, and
// churnWarmBlock one block of warm-up writes.
var (
	churnBlock     = [numKinds]int{opRange: 10, opNN: 5, opInsert: 4, opDelete: 1}
	churnWarmBlock = [numKinds]int{opInsert: 4, opDelete: 1}
)

const (
	churnBlocks     = 20 // 400 measured operations, 100 of them writes
	churnWarmBlocks = 20 // 100 warm-up writes
)

// respStats accumulates what query responses report about the server's
// own stages.
type respStats struct {
	queries, cached, executed int
	queuedMS, batch           float64
	predNodes, predDists      float64
}

func (s *respStats) add(w *wireResponse) {
	s.queries++
	if w.Cached {
		s.cached++
		return
	}
	s.executed++
	s.queuedMS += w.QueuedMS
	s.batch += float64(w.BatchSize)
	s.predNodes += w.Predicted.NodeReads
	s.predDists += w.Predicted.DistCalcs
}

func (s *respStats) merge(o *respStats) {
	s.queries += o.queries
	s.cached += o.cached
	s.executed += o.executed
	s.queuedMS += o.queuedMS
	s.batch += o.batch
	s.predNodes += o.predNodes
	s.predDists += o.predDists
}

// churnClient issues the serve-churn requests against one server.
type churnClient struct {
	c      *http.Client
	base   string
	in     inputs
	bodies queryBodies
	radius float64
}

// request returns the route and body of pool query qi, and its k (0
// for a range query).
func (cc *churnClient) request(kind opKind, qi int) (string, []byte, int) {
	if kind == opNN {
		return "/v1/nn", cc.bodies.nn[qi], nnK
	}
	return "/v1/range", cc.bodies.rng[qi], 0
}

// query issues one range or k-NN query of the pool and checks the
// answer's shape (the indexed set moves under writes, so the exact
// check runs after the schedule).
func (cc *churnClient) query(kind opKind, qi int, st *respStats) outcome {
	path, body, k := cc.request(kind, qi)
	status, rb, err := post(cc.c, cc.base+path, body)
	o, w := classify(status, rb, err)
	if o != outOK {
		return o
	}
	if st != nil {
		st.add(w)
	}
	if !shapeOK(cc.in.space, cc.in.pool[qi], w, cc.radius, k) {
		return outWrong
	}
	return outOK
}

// readLoop is a closed read-only loop with clients callers, half range
// and half k-NN, uniform over the pool.
func (cc *churnClient) readLoop(clients int, d time.Duration, seed int64) (*recorder, time.Duration) {
	return closedLoop(clients, d, seed, func(rng *rand.Rand) (opKind, time.Duration, outcome) {
		kind, qi := opKind(rng.Intn(2)), rng.Intn(len(cc.in.pool))
		start := time.Now()
		o := cc.query(kind, qi, nil)
		return kind, time.Since(start), o
	})
}

// churnResult is what the open loop leaves behind.
type churnResult struct {
	rec     *recorder
	stats   respStats
	lagMS   []float64
	elapsed time.Duration
}

// openLoop runs the plan on a fixed schedule spanning span: operation i
// is due at i·span/len(plan), issued by one of two workers (one
// connection each). Acknowledged writes are applied to live.
func (cc *churnClient) openLoop(plan []opPlan, span time.Duration, live *liveSet) *churnResult {
	n := len(plan)
	interval := span / time.Duration(n)
	oids := make([]uint64, n)
	inserted := make([]bool, n)
	deleted := make([]bool, n)
	done := make([]chan struct{}, n)
	for i, op := range plan {
		if op.kind == opInsert {
			done[i] = make(chan struct{})
		}
	}

	exec := func(i int, st *respStats) outcome {
		op := plan[i]
		switch op.kind {
		case opInsert:
			defer close(done[i])
			status, rb, err := post(cc.c, cc.base+"/v1/insert", insertBody(cc.in.extra[op.qi]))
			var resp struct {
				OID uint64 `json:"oid"`
			}
			if err != nil || status != http.StatusOK || json.Unmarshal(rb, &resp) != nil {
				o, _ := classify(status, nil, err)
				if o == outOK {
					o = outError
				}
				return o
			}
			oids[i], inserted[i] = resp.OID, true
			return outOK
		case opDelete:
			<-done[op.target]
			if !inserted[op.target] {
				return outError
			}
			obj := cc.in.extra[plan[op.target].qi]
			status, rb, err := post(cc.c, cc.base+"/v1/delete", deleteBody(obj, oids[op.target]))
			var resp struct {
				Deleted bool `json:"deleted"`
			}
			if err != nil || status != http.StatusOK || json.Unmarshal(rb, &resp) != nil || !resp.Deleted {
				o, _ := classify(status, nil, err)
				if o == outOK {
					o = outError
				}
				return o
			}
			deleted[i] = true
			return outOK
		}
		return cc.query(op.kind, op.qi, st)
	}

	// Each worker claims the next operation, sleeps until it is due and
	// issues it; an operation due while both workers are busy is claimed
	// late and waits, and its latency still counts from its due time.
	// lagMS records how late a worker that was free woke up.
	res := &churnResult{rec: &recorder{}}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  atomic.Int64
		start = time.Now()
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, st := &recorder{}, &respStats{}
			var lag []float64
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				if time.Now().Before(due) {
					sleepUntil(due)
					lag = append(lag, float64(time.Since(due).Nanoseconds())/1e6)
				}
				o := exec(i, st)
				rec.add(plan[i].kind, time.Since(due), o)
			}
			mu.Lock()
			res.rec.merge(rec)
			res.stats.merge(st)
			res.lagMS = append(res.lagMS, lag...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)

	for i, op := range plan {
		if op.kind == opInsert && inserted[i] {
			live.objs[oids[i]] = cc.in.extra[op.qi]
		}
	}
	for i, op := range plan {
		if op.kind == opDelete && deleted[i] {
			delete(live.objs, oids[op.target])
		}
	}
	return res
}

// sleepUntil returns at t. A runtime sleep can overshoot by about a
// millisecond, several times a range query's service time, so it
// sleeps to within a millisecond of t and yields in a loop from there.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// quiescentCheck compares the server's answers for the first n pool
// queries, in both kinds, exactly against brute force over the set the
// acknowledged writes imply.
func (cc *churnClient) quiescentCheck(live *liveSet, n int) *recorder {
	rec := &recorder{}
	for qi := 0; qi < n; qi++ {
		for _, kind := range []opKind{opRange, opNN} {
			path, body, k := cc.request(kind, qi)
			start := time.Now()
			status, rb, err := post(cc.c, cc.base+path, body)
			lat := time.Since(start)
			o, w := classify(status, rb, err)
			if o == outOK && !w.answer().equal(live.brute(cc.in.space, cc.in.pool[qi], cc.radius, k)) {
				o = outWrong
			}
			rec.add(kind, lat, o)
		}
	}
	return rec
}

func runServeChurn(cfg runConfig) (*report, error) {
	warmInserts := churnWarmBlocks * churnWarmBlock[opInsert]
	in := makeInputs(datasetN, cfg.seed, churnPool, warmInserts+churnBlocks*churnBlock[opInsert])
	rng := rand.New(rand.NewSource(cfg.seed))
	warmPlan, err := blockMix(churnWarmBlocks*5, churnWarmBlock, churnPool, 0, rng)
	if err != nil {
		return nil, err
	}
	plan, err := blockMix(churnBlocks*20, churnBlock, churnPool, warmInserts, rng)
	if err != nil {
		return nil, err
	}
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}

	start := time.Now()
	ix, build, err := serveIndex(in)
	if err != nil {
		return nil, err
	}
	scfg, err := serveConfig(ix, in.space, in.objects[0])
	if err != nil {
		return nil, err
	}
	st, err := startServer(scfg, t, "server")
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	defer st.close()

	rep := newReport()
	rep.metrics["setup_s"] = setup.Seconds()
	rep.metrics["mem_mb"] = heapMB()

	radius := ix.ExpectedNNDistance(nnK)
	client := newClient(2)
	defer closeClient(client)
	cc := &churnClient{c: client, base: st.http.url, in: in, bodies: encodeQueries(in.pool, radius, nnK), radius: radius}

	if cfg.trace {
		if err := churnOverhead(cfg, cc, ix, rep); err != nil {
			return nil, err
		}
	}
	// Untimed warm-up: the warm-up writes back to back, then reads that
	// fill the cache and the recalibrator's bias window.
	live := newLiveSet(in.objects)
	count(rep, cc.openLoop(warmPlan, 0, live).rec)
	warm, _ := cc.readLoop(2, 2*time.Second, cfg.seed+1)
	count(rep, warm)
	if t != nil {
		t.reset()
	}

	probes0 := st.srv.Registry().Counter("server.cache_probe_dists").Value()
	res := cc.openLoop(plan, time.Duration(cfg.seconds*float64(time.Second)), live)
	probes := st.srv.Registry().Counter("server.cache_probe_dists").Value() - probes0
	res.rec.fill(rep)
	rep.metrics["ops_per_s"] = float64(res.rec.total()) / res.elapsed.Seconds()

	check := cc.quiescentCheck(live, 100)
	count(rep, check)
	rep.metrics["ok_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	if !cfg.trace {
		return rep, nil
	}
	if err := churnLayers(t, ix, in, radius, res, live, probes, build, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// churnOverhead measures the tracing overhead before any write: closed
// read loops alternate between the traced server and an untraced one
// over the same index. It also times loopback health checks.
func churnOverhead(cfg runConfig, cc *churnClient, ix *mcost.Index, rep *report) error {
	pcfg, err := serveConfig(ix, cc.in.space, cc.in.objects[0])
	if err != nil {
		return err
	}
	plain, err := startServer(pcfg, nil, "")
	if err != nil {
		return err
	}
	defer plain.close()
	if rep.metrics["client.rtt_us"], err = healthRTT(cc.c, cc.base, 200); err != nil {
		return err
	}
	pc := *cc
	pc.base = plain.http.url
	slice := time.Duration(cfg.seconds * float64(time.Second) / 8)
	var plainOps, tracedOps int64
	var plainT, tracedT time.Duration
	for round := 0; round < 4; round++ {
		r, d := pc.readLoop(2, slice, cfg.seed+int64(round))
		count(rep, r)
		plainOps, plainT = plainOps+r.total(), plainT+d
		r, d = cc.readLoop(2, slice, cfg.seed+int64(round))
		count(rep, r)
		tracedOps, tracedT = tracedOps+r.total(), tracedT+d
	}
	rep.metrics["trace.overhead_frac"] = ratio(float64(plainOps)/plainT.Seconds(), float64(tracedOps)/tracedT.Seconds()) - 1
	return nil
}

// churnLayers turns the traced open loop into per-layer metrics, then
// measures the index as the writes left it: per-query costs and
// allocations of the facade (the arena is thawed by the first write),
// checked against brute force over the live set.
func churnLayers(t *tracer, ix *mcost.Index, in inputs, radius float64, res *churnResult, live *liveSet, probes int64, build time.Duration, rep *report) error {
	m := rep.metrics
	m["metric.ns_per_dist"] = kernelNSPerDist(in)
	m["mcost.build_s"] = build.Seconds()

	m["client.lag_ms"] = quantile(res.lagMS, 0.99)
	w := res.rec.writes()
	m["client.write_p50_us"] = quantile(w, 0.5)
	m["client.write_p99_us"] = quantile(w, 0.99)
	m["client.range_p99_us"] = quantile(res.rec.lat[opRange], 0.99)
	m["client.nn_p99_us"] = quantile(res.rec.lat[opNN], 0.99)
	tot := float64(res.rec.total())
	m["server.shed_frac"] = float64(res.rec.tally[outShed]) / tot
	m["server.partial_frac"] = float64(res.rec.tally[outPartial]) / tot

	s := res.stats
	m["rescache.hit_rate"] = ratio(float64(s.cached), float64(s.queries))
	m["rescache.probe_dists_per_query"] = ratio(float64(probes), float64(s.queries))
	m["server.queue_us"] = ratio(s.queuedMS*1000, float64(s.executed))
	m["server.batch_size"] = ratio(s.batch, float64(s.executed))

	// Means, not medians: the write that triggers the refit carries it.
	ins, del := t.series("server.insert"), t.series("server.delete")
	m["mtree.insert_us"] = mean(ins)
	m["mtree.delete_us"] = mean(del)

	layerStages(t, "server", m)
	m["core.node_ratio"] = ratio(sum(t.series("server.exec_range_nodes"))+sum(t.series("server.exec_nn_nodes")), s.predNodes)
	m["core.dist_ratio"] = ratio(sum(t.series("server.exec_range_dists"))+sum(t.series("server.exec_nn_dists")), s.predDists)

	writeH := append(t.series("server/v1/insert"), t.series("server/v1/delete")...)
	m["server.write_handler_us"] = median(writeH)
	m["server.write_wait_us"] = mean(writeH) - mean(append(ins, del...)) - mean(t.series("server.decode"))

	c, err := poolCosts(ix, 200, func(kind opKind, qi int) (bool, error) {
		k := 0
		var ms []mcost.Match
		var err error
		if kind == opRange {
			ms, err = ix.Range(in.pool[qi], radius)
		} else {
			k = nnK
			ms, err = ix.NN(in.pool[qi], k)
		}
		if err != nil {
			return false, err
		}
		return canonical(ms).equal(live.brute(in.space, in.pool[qi], radius, k)), nil
	}, rep)
	if err != nil {
		return fmt.Errorf("post-churn pass: %w", err)
	}
	c.fill(m)
	m["mtree.allocs_per_query"] = facadeAllocs(ix, in.pool[:200], radius)
	refit, err := timedRefit(ix)
	m["mcost.refit_s"] = refit
	return err
}

// layerStages fills the stage metrics one server layer's wrappers
// recorded: decode, pricing, planning and execution per call, node
// reads and distance computations per executed query, handler
// time per route, and the handler's self time, which is the mean query
// handler time less the mean time per query spent in decode, pricing,
// planning and execution (what is left: JSON encoding, cache probes,
// admission, hand-off to the batcher and waits for the write lock).
func layerStages(t *tracer, layer string, m map[string]float64) {
	dec := t.series(layer + ".decode")
	m["server.decode_us"] = mean(dec)
	m["core.price_range_us"] = median(t.series(layer + ".price_range"))
	m["core.price_nn_us"] = median(t.series(layer + ".price_nn"))
	plan := t.series(layer + ".plan")
	m["advisor.plan_us"] = median(plan)
	m["advisor.scan_frac"] = mean(t.series(layer + ".plan_scan"))
	m["mtree.range_us"] = median(t.series(layer + ".exec_range"))
	m["mtree.nn_us"] = median(t.series(layer + ".exec_nn"))
	for _, kind := range []string{"range", "nn"} {
		p := layer + ".exec_" + kind
		queries := sum(t.series(p + "_queries"))
		m["mtree."+kind+"_nodes"] = ratio(sum(t.series(p+"_nodes")), queries)
		m["mtree."+kind+"_dists"] = ratio(sum(t.series(p+"_dists")), queries)
	}
	rh, nh := t.series(layer+"/v1/range"), t.series(layer+"/v1/nn")
	m["server.range_handler_us"] = median(rh)
	m["server.nn_handler_us"] = median(nh)
	q := float64(len(rh) + len(nh))
	stages := q*mean(dec) +
		sum(t.series(layer+".price_range")) + sum(t.series(layer+".price_nn")) + sum(plan) +
		sum(t.series(layer+".exec_range")) + sum(t.series(layer+".exec_nn"))
	m["server.self_us"] = ratio(sum(rh)+sum(nh)-stages, q)
}
