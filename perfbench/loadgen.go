package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"mcost"
)

// httpServer is one loopback listener serving a handler.
type httpServer struct {
	srv  *http.Server
	done chan error
	url  string
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{srv: &http.Server{Handler: h}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for in-flight handlers and for the
// serving goroutine to return.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // the handlers overran the grace period; Close reports nothing more useful
	}
	<-s.done
}

// newClient keeps at most conns connections to a host, so a closed
// loop with conns callers (or an open loop with conns workers) holds
// exactly that many.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 150 * time.Second,
	}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one request and reads the whole body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// wireMatch and wireResponse are the client's view of a /v1/range or
// /v1/nn answer from a node server or the router.
type wireMatch struct {
	OID      uint64    `json:"oid"`
	Distance float64   `json:"distance"`
	Object   []float64 `json:"object"`
}

type wireResponse struct {
	Matches []wireMatch `json:"matches"`
	Partial bool        `json:"partial"`
	// Degraded is a cause string on a node and a bool on the router.
	Degraded      json.RawMessage `json:"degraded"`
	Cached        bool            `json:"cached"`
	BatchSize     int             `json:"batch_size"`
	QueuedMS      float64         `json:"queued_ms"`
	ShardsQueried int             `json:"shards_queried"`
	Predicted     struct {
		NodeReads float64 `json:"node_reads"`
		DistCalcs float64 `json:"dist_calcs"`
	} `json:"predicted"`
}

func (w *wireResponse) degraded() bool {
	return w.Partial || (len(w.Degraded) > 0 && string(w.Degraded) != "false" && string(w.Degraded) != `""`)
}

func (w *wireResponse) answer() answer {
	a := make(answer, len(w.Matches))
	for i, m := range w.Matches {
		a[i] = key{m.OID, m.Distance}
	}
	sortAnswer(a)
	return a
}

// classify sorts a query response by status; for a complete 200 it
// also decodes the body. A 200 whose body does not parse is an error.
func classify(status int, body []byte, err error) (outcome, *wireResponse) {
	switch {
	case err != nil || status >= 500:
		return outError, nil
	case status == http.StatusTooManyRequests:
		return outShed, nil
	case status != http.StatusOK:
		return outRejected, nil
	}
	var w wireResponse
	if json.Unmarshal(body, &w) != nil {
		return outError, nil
	}
	if w.degraded() {
		return outPartial, &w
	}
	return outOK, &w
}

// shapeOK checks what any correct answer must satisfy without knowing
// the indexed set: every reported distance is the true distance to the
// returned object, OIDs are distinct, range matches lie within the
// radius, and a k-NN answer has exactly k matches in canonical
// (distance, OID) order.
func shapeOK(space *mcost.Space, q mcost.Object, w *wireResponse, radius float64, k int) bool {
	seen := make(map[uint64]bool, len(w.Matches))
	for i, m := range w.Matches {
		if seen[m.OID] || space.Distance(q, mcost.Vector(m.Object)) != m.Distance {
			return false
		}
		seen[m.OID] = true
		if k == 0 && m.Distance > radius {
			return false
		}
		if k > 0 && i > 0 {
			p := w.Matches[i-1]
			if p.Distance > m.Distance || (p.Distance == m.Distance && p.OID > m.OID) {
				return false
			}
		}
	}
	return k == 0 || len(w.Matches) == k
}

// queryBodies pre-encodes the range and k-NN requests of a pool.
type queryBodies struct {
	rng, nn [][]byte
}

func encodeQueries(pool []mcost.Object, radius float64, k int) queryBodies {
	b := queryBodies{rng: make([][]byte, len(pool)), nn: make([][]byte, len(pool))}
	for i, q := range pool {
		b.rng[i] = rangeBody(q, radius)
		b.nn[i] = nnBody(q, k)
	}
	return b
}

// checkedQuery issues one query against base and verifies a complete
// answer exactly against the oracle; the latency covers the request
// and reading the response, not the check.
func checkedQuery(c *http.Client, base string, kind opKind, qi int, bodies queryBodies, orc *oracle) (time.Duration, outcome, *wireResponse) {
	path, body, want := "/v1/range", bodies.rng[qi], orc.rng[qi]
	if kind == opNN {
		path, body, want = "/v1/nn", bodies.nn[qi], orc.nn[qi]
	}
	start := time.Now()
	status, rb, err := post(c, base+path, body)
	lat := time.Since(start)
	o, w := classify(status, rb, err)
	if o == outOK && !w.answer().equal(want) {
		o = outWrong
	}
	return lat, o, w
}

// closedLoop runs clients callers that each keep one operation in
// flight until the deadline; op draws the next operation from the
// caller's own seeded stream and returns its latency and outcome.
func closedLoop(clients int, d time.Duration, seed int64, op func(rng *rand.Rand) (opKind, time.Duration, outcome)) (*recorder, time.Duration) {
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		recs[c] = &recorder{}
		wg.Add(1)
		go func(rec *recorder, rng *rand.Rand) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k, lat, o := op(rng)
				rec.add(k, lat, o)
			}
		}(recs[c], rand.New(rand.NewSource(seed+int64(c)*7919)))
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := &recorder{}
	for _, r := range recs {
		all.merge(r)
	}
	return all, elapsed
}

// healthRTT times loopback GET /healthz round trips, the floor under
// every HTTP latency.
func healthRTT(c *http.Client, base string, n int) (float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		resp, err := c.Get(base + "/healthz")
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close() // fully read; a close error loses nothing
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
		lat = append(lat, micros(time.Since(start)))
	}
	return median(lat), nil
}
