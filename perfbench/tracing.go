package main

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"mcost/internal/advisor"
	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/server"
)

// tracer records what the traced run observes at the public boundaries
// of the program's layers: the server.Engine an HTTP server drives, its
// ObjectDecoder, and the http.Handlers of servers and the router. The
// wrappers call straight through; they only time calls and read the
// counts the wrapped call reports. Values are kept in memory and
// summarized when the run ends.
type tracer struct {
	mu     sync.Mutex
	values map[string][]float64
	spans  map[string][]span
}

// span is one handler call: its route and wall-clock interval.
type span struct {
	path       string
	start, end time.Time
}

func newTracer() *tracer {
	return &tracer{values: map[string][]float64{}, spans: map[string][]span{}}
}

// add appends one observation to the named series.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

func (t *tracer) series(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.values[name]...)
}

// spansOf returns the recorded handler spans of one layer.
func (t *tracer) spansOf(layer string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[layer]...)
}

// reset drops everything recorded so far (used between the overhead
// probe and the measured phase).
func (t *tracer) reset() {
	t.mu.Lock()
	t.values = map[string][]float64{}
	t.spans = map[string][]span{}
	t.mu.Unlock()
}

// handler wraps h, recording one span per request under layer and the
// handler time under "<layer><path>".
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.spans[layer] = append(t.spans[layer], span{r.URL.Path, start, end})
		t.values[layer+r.URL.Path] = append(t.values[layer+r.URL.Path], micros(end.Sub(start)))
		t.mu.Unlock()
	})
}

// decoder wraps an ObjectDecoder, timing every decode under
// "<layer>.decode".
func (t *tracer) decoder(layer string, d server.ObjectDecoder) server.ObjectDecoder {
	return func(raw json.RawMessage) (metric.Object, error) {
		start := time.Now()
		o, err := d(raw)
		t.add(layer+".decode", micros(time.Since(start)))
		return o, err
	}
}

// tracedEngine times the server.Engine surface: pricing under
// "<layer>.price_range"/".price_nn", batch execution under
// "<layer>.exec_range"/".exec_nn" with the node reads and distance
// computations the call's trace reports.
type tracedEngine struct {
	eng   server.Engine
	t     *tracer
	layer string
}

func (e *tracedEngine) PriceRange(radius float64) core.CostEstimate {
	start := time.Now()
	est := e.eng.PriceRange(radius)
	e.t.add(e.layer+".price_range", micros(time.Since(start)))
	return est
}

func (e *tracedEngine) PriceNN(k int) core.CostEstimate {
	start := time.Now()
	est := e.eng.PriceNN(k)
	e.t.add(e.layer+".price_nn", micros(time.Since(start)))
	return est
}

func (e *tracedEngine) RangeBatchTraced(ctx context.Context, qs []metric.Object, radius float64, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	n0, d0 := tr.TotalNodes(), tr.TotalDists()
	start := time.Now()
	out, err := e.eng.RangeBatchTraced(ctx, qs, radius, b, tr)
	e.execDone("range", start, len(qs), tr.TotalNodes()-n0, tr.TotalDists()-d0)
	return out, err
}

func (e *tracedEngine) NNBatchTraced(ctx context.Context, qs []metric.Object, k int, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	n0, d0 := tr.TotalNodes(), tr.TotalDists()
	start := time.Now()
	out, err := e.eng.NNBatchTraced(ctx, qs, k, b, tr)
	e.execDone("nn", start, len(qs), tr.TotalNodes()-n0, tr.TotalDists()-d0)
	return out, err
}

func (e *tracedEngine) execDone(kind string, start time.Time, queries int, nodes, dists int64) {
	us := micros(time.Since(start))
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	p := e.layer + ".exec_" + kind
	e.t.values[p] = append(e.t.values[p], us)
	e.t.values[p+"_queries"] = append(e.t.values[p+"_queries"], float64(queries))
	e.t.values[p+"_nodes"] = append(e.t.values[p+"_nodes"], float64(nodes))
	e.t.values[p+"_dists"] = append(e.t.values[p+"_dists"], float64(dists))
}

func (e *tracedEngine) Size() int     { return e.eng.Size() }
func (e *tracedEngine) NumNodes() int { return e.eng.NumNodes() }
func (e *tracedEngine) Height() int   { return e.eng.Height() }
func (e *tracedEngine) PageSize() int { return e.eng.PageSize() }

// tracedMutable times Insert and Delete under "<layer>.insert" and
// "<layer>.delete".
type tracedMutable struct {
	m     server.Mutable
	t     *tracer
	layer string
}

func (m tracedMutable) Insert(obj metric.Object) (uint64, error) {
	start := time.Now()
	oid, err := m.m.Insert(obj)
	m.t.add(m.layer+".insert", micros(time.Since(start)))
	return oid, err
}

func (m tracedMutable) Delete(obj metric.Object, oid uint64) error {
	start := time.Now()
	err := m.m.Delete(obj, oid)
	m.t.add(m.layer+".delete", micros(time.Since(start)))
	return err
}

// tracedPlanner times PlanRange/PlanNN under "<layer>.plan" and records
// 1 under "<layer>.plan_scan" for each scan decision, 0 otherwise.
type tracedPlanner struct {
	p     server.Planner
	t     *tracer
	layer string
}

func (p tracedPlanner) PlanRange(radius float64) (advisor.Decision, error) {
	start := time.Now()
	d, err := p.p.PlanRange(radius)
	p.done(start, d)
	return d, err
}

func (p tracedPlanner) PlanNN(k int) (advisor.Decision, error) {
	start := time.Now()
	d, err := p.p.PlanNN(k)
	p.done(start, d)
	return d, err
}

func (p tracedPlanner) done(start time.Time, d advisor.Decision) {
	p.t.add(p.layer+".plan", micros(time.Since(start)))
	scan := 0.0
	if d.Engine == advisor.EngineScan {
		scan = 1
	}
	p.t.add(p.layer+".plan_scan", scan)
}

func (p tracedPlanner) Hardness() advisor.Profile { return p.p.Hardness() }

// engine wraps eng so that the result implements exactly the optional
// interfaces eng implements (Mutable, Planner, RecalReporter,
// ModelReporter). The server discovers its write endpoints, plan stage,
// recalibration gauges and /v1/model by type assertion, so a wrapper
// that added or dropped one would change what is being measured.
func (t *tracer) engine(layer string, eng server.Engine) server.Engine {
	te := &tracedEngine{eng: eng, t: t, layer: layer}
	m, isM := eng.(server.Mutable)
	p, isP := eng.(server.Planner)
	r, isR := eng.(server.RecalReporter)
	x, isX := eng.(server.ModelReporter)
	tm := tracedMutable{m, t, layer}
	tp := tracedPlanner{p, t, layer}
	type (
		M = tracedMutable
		P = tracedPlanner
		R = server.RecalReporter
		X = server.ModelReporter
	)
	mask := 0
	for i, has := range []bool{isM, isP, isR, isX} {
		if has {
			mask |= 1 << i
		}
	}
	switch mask {
	case 0b0001:
		return struct {
			*tracedEngine
			M
		}{te, tm}
	case 0b0010:
		return struct {
			*tracedEngine
			P
		}{te, tp}
	case 0b0011:
		return struct {
			*tracedEngine
			M
			P
		}{te, tm, tp}
	case 0b0100:
		return struct {
			*tracedEngine
			R
		}{te, r}
	case 0b0101:
		return struct {
			*tracedEngine
			M
			R
		}{te, tm, r}
	case 0b0110:
		return struct {
			*tracedEngine
			P
			R
		}{te, tp, r}
	case 0b0111:
		return struct {
			*tracedEngine
			M
			P
			R
		}{te, tm, tp, r}
	case 0b1000:
		return struct {
			*tracedEngine
			X
		}{te, x}
	case 0b1001:
		return struct {
			*tracedEngine
			M
			X
		}{te, tm, x}
	case 0b1010:
		return struct {
			*tracedEngine
			P
			X
		}{te, tp, x}
	case 0b1011:
		return struct {
			*tracedEngine
			M
			P
			X
		}{te, tm, tp, x}
	case 0b1100:
		return struct {
			*tracedEngine
			R
			X
		}{te, r, x}
	case 0b1101:
		return struct {
			*tracedEngine
			M
			R
			X
		}{te, tm, r, x}
	case 0b1110:
		return struct {
			*tracedEngine
			P
			R
			X
		}{te, tp, r, x}
	case 0b1111:
		return struct {
			*tracedEngine
			M
			P
			R
			X
		}{te, tm, tp, r, x}
	}
	return te
}

// Compile-time checks that the parts carry the methods they stand for.
var (
	_ server.Engine  = (*tracedEngine)(nil)
	_ server.Mutable = tracedMutable{}
	_ server.Planner = tracedPlanner{}
)
