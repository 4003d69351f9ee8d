package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"mcost"
	"mcost/internal/server"
)

// optionalIfaces reports which optional server interfaces e implements,
// in the order Mutable, Planner, RecalReporter, ModelReporter.
func optionalIfaces(e server.Engine) [4]bool {
	_, m := e.(server.Mutable)
	_, p := e.(server.Planner)
	_, r := e.(server.RecalReporter)
	_, x := e.(server.ModelReporter)
	return [4]bool{m, p, r, x}
}

// bareEngine implements server.Engine and nothing else.
type bareEngine struct{ server.Engine }

func TestTracedEngineKeepsOptionalInterfaces(t *testing.T) {
	in := makeInputs(2000, 3, 10, 0)
	ix, err := mcost.Build(in.space, in.objects, buildOptions())
	if err != nil {
		t.Fatal(err)
	}
	node, err := mcost.BuildShardNode(in.space, in.objects, buildOptions(), clusterShards, 1)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := mcost.BuildSharded(in.space, in.objects, buildOptions(), clusterShards)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for name, eng := range map[string]server.Engine{
		"index": ix, "shard-node": node, "sharded-index": sx, "bare": bareEngine{ix},
	} {
		if got, want := optionalIfaces(tr.engine("x", eng)), optionalIfaces(eng); got != want {
			t.Errorf("%s: traced engine implements %v, wrapped engine %v", name, got, want)
		}
	}
}

// withoutQueued re-encodes a JSON body without its queued_ms field, the
// one response field that measures wall-clock time.
func withoutQueued(t *testing.T, body []byte) string {
	var v map[string]interface{}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not a JSON object: %s", body)
	}
	delete(v, "queued_ms")
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

type request struct {
	path string
	body []byte
}

// sameBodies sends reqs to both bases in turn and requires identical
// statuses and bodies.
func sameBodies(t *testing.T, c *http.Client, plain, traced string, reqs []request) {
	t.Helper()
	for i, r := range reqs {
		ps, pb, err := post(c, plain+r.path, r.body)
		if err != nil {
			t.Fatal(err)
		}
		ts, tb, err := post(c, traced+r.path, r.body)
		if err != nil {
			t.Fatal(err)
		}
		if ps != http.StatusOK || ts != ps {
			t.Fatalf("request %d %s: untraced %d, traced %d: %s", i, r.path, ps, ts, tb)
		}
		if p, q := withoutQueued(t, pb), withoutQueued(t, tb); p != q {
			t.Fatalf("request %d %s: bodies differ\nuntraced %s\ntraced   %s", i, r.path, p, q)
		}
	}
}

// TestTracedStacksAnswerIdentically drives a traced and an untraced
// serve stack (each over its own index built from the same seed) and a
// traced and an untraced cluster with the same seeded requests, writes
// included, and requires byte-identical responses apart from queued_ms.
func TestTracedStacksAnswerIdentically(t *testing.T) {
	in := makeInputs(2000, 5, 20, 4)
	var urls [2]string
	var ixs [2]*mcost.Index
	for i, tr := range []*tracer{nil, newTracer()} {
		ix, _, err := serveIndex(in)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := serveConfig(ix, in.space, in.objects[0])
		if err != nil {
			t.Fatal(err)
		}
		st, err := startServer(cfg, tr, "server")
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		urls[i], ixs[i] = st.http.url, ix
	}
	radius := ixs[0].ExpectedNNDistance(nnK)
	var reqs []request
	for qi, q := range in.pool {
		reqs = append(reqs, request{"/v1/range", rangeBody(q, radius)}, request{"/v1/nn", nnBody(q, nnK)})
		if qi < len(in.extra) {
			reqs = append(reqs, request{"/v1/insert", insertBody(in.extra[qi])})
		}
	}
	// Inserts take OIDs n, n+1, ... on both indexes.
	reqs = append(reqs, request{"/v1/delete", deleteBody(in.extra[1], uint64(len(in.objects)+1))})
	for _, q := range in.pool {
		reqs = append(reqs, request{"/v1/range", rangeBody(q, radius)}, request{"/v1/nn", nnBody(q, nnK)})
	}
	c := newClient(1)
	defer closeClient(c)
	sameBodies(t, c, urls[0], urls[1], reqs)

	plain, err := startCluster(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	traced, err := startCluster(in, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer traced.close()
	reqs = reqs[:0]
	for _, q := range in.pool {
		reqs = append(reqs, request{"/v1/range", rangeBody(q, radius)}, request{"/v1/nn", nnBody(q, nnK)})
	}
	sameBodies(t, c, plain.url(), traced.url(), reqs)
}

func TestRouterSelfSubtractsNodeSpans(t *testing.T) {
	base := time.Unix(0, 0)
	mk := func(path string, fromMS, toMS int) span {
		return span{path, base.Add(time.Duration(fromMS) * time.Millisecond), base.Add(time.Duration(toMS) * time.Millisecond)}
	}
	router := []span{mk("/v1/nn", 0, 10), mk("/healthz", 11, 12), mk("/v1/range", 20, 30)}
	nodes := []span{
		mk("/v1/nn", 2, 5), mk("/v1/nn", 3, 7), mk("/v1/nn", 8, 9), // covers 2-7 and 8-9: 6ms
		mk("/healthz", 15, 16),
		mk("/v1/range", 25, 31), // clipped at the router span's end: 5ms
	}
	self, calls := routerSelf(router, nodes)
	if fmt.Sprint(self) != "[4000 5000]" || calls != 2 {
		t.Fatalf("self %v, calls per query %v; want [4000 5000] and 2", self, calls)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
