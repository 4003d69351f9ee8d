package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"mcost"
	"mcost/internal/cliutil"
	"mcost/internal/router"
	"mcost/internal/server"
)

// serveConfig is server.Config as mcost-serve assembles it from its
// default flags (engine auto, no admission limit, no batching, 4x
// budget slack) plus a 1,024-entry result cache.
func serveConfig(eng server.Engine, space *mcost.Space, sample mcost.Object) (server.Config, error) {
	dec, err := server.DecoderForSpace(space, sample)
	if err != nil {
		return server.Config{}, err
	}
	cache, err := (&cliutil.CacheFlags{Entries: 1024}).Build(space)
	if err != nil {
		return server.Config{}, err
	}
	return server.Config{
		Engine:      eng,
		Decode:      dec,
		Admission:   server.AdmitConfig{BurstSeconds: 1, MaxQueueDelay: 100 * time.Millisecond},
		Cache:       cache,
		BudgetSlack: server.DefaultBudgetSlack,
	}, nil
}

// nodeConfig is server.Config as mcost-serve assembles it for a shard
// node (-shard-index): default flags, no cache.
func nodeConfig(eng server.Engine, space *mcost.Space, sample mcost.Object) (server.Config, error) {
	cfg, err := serveConfig(eng, space, sample)
	cfg.Cache = nil
	return cfg, err
}

// httpStack is one server.Server behind a loopback listener.
type httpStack struct {
	srv  *server.Server
	http *httpServer
}

// startServer mounts cfg on a loopback listener. With a tracer the
// engine, the decoder and the handler are wrapped under layer.
func startServer(cfg server.Config, t *tracer, layer string) (*httpStack, error) {
	if t != nil {
		cfg.Engine = t.engine(layer, cfg.Engine)
		cfg.Decode = t.decoder(layer, cfg.Decode)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if t != nil {
		h = t.handler(layer, h)
	}
	hs, err := listen(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &httpStack{srv: srv, http: hs}, nil
}

func (s *httpStack) close() {
	s.http.close()
	s.srv.Close()
}

// serveIndex builds the index the serve workloads run on: the facade
// build, recalibration with mcost-serve's defaults (-recal), and engine
// auto. It returns the index and the facade build time alone.
func serveIndex(in inputs) (*mcost.Index, time.Duration, error) {
	start := time.Now()
	ix, err := mcost.Build(in.space, in.objects, buildOptions())
	build := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	cfg := (&cliutil.RecalFlags{Enabled: true}).Config(datasetSeed)
	if err := ix.EnableRecalibration(cfg, in.objects); err != nil {
		return nil, 0, err
	}
	if err := ix.SetEngineMode(mcost.EngineAuto); err != nil {
		return nil, 0, err
	}
	return ix, build, nil
}

// clusterShards is the cluster-nn partition: three shards, pivot
// assignment.
var clusterShards = mcost.ShardOptions{Shards: 3, Assign: mcost.ShardPivot}

// cluster is the distributed tier of cluster-nn: one mcost-serve shard
// node per shard and the router over them, all on loopback.
type cluster struct {
	nodes  []*httpStack
	router *router.Router
	http   *httpServer
	build  time.Duration // facade shard-node builds
	boot   time.Duration // router.New: summary fetch and predictor rebuild
}

func startCluster(in inputs, t *tracer) (*cluster, error) {
	c := &cluster{}
	shards := make([][]string, clusterShards.Shards)
	for i := range shards {
		start := time.Now()
		node, err := mcost.BuildShardNode(in.space, in.objects, buildOptions(), clusterShards, i)
		c.build += time.Since(start)
		if err != nil {
			c.close()
			return nil, err
		}
		cfg, err := nodeConfig(node, in.space, in.objects[0])
		if err != nil {
			c.close()
			return nil, err
		}
		st, err := startServer(cfg, t, "node")
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, st)
		shards[i] = []string{st.http.url}
	}
	start := time.Now()
	rt, err := router.New(context.Background(), router.Config{Shards: shards, Seed: datasetSeed})
	c.boot = time.Since(start)
	if err != nil {
		c.close()
		return nil, fmt.Errorf("booting router: %w", err)
	}
	c.router = rt
	var h http.Handler = rt.Handler()
	if t != nil {
		h = t.handler("router", h)
	}
	if c.http, err = listen(h); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) url() string { return c.http.url }

func (c *cluster) close() {
	if c.http != nil {
		c.http.close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, n := range c.nodes {
		n.close()
	}
}
