package main

import (
	"math/rand"
	"testing"
	"time"
)

// TestOpenLoopChurnMatchesBruteForce runs a small serve-churn schedule
// (writes included, two workers) against a real server and requires
// every operation to succeed and the server's answers afterwards to
// equal brute force over the set the acknowledged writes imply.
func TestOpenLoopChurnMatchesBruteForce(t *testing.T) {
	in := makeInputs(2000, 9, 50, 48)
	ix, _, err := serveIndex(in)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := serveConfig(ix, in.space, in.objects[0])
	if err != nil {
		t.Fatal(err)
	}
	st, err := startServer(cfg, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	client := newClient(2)
	defer closeClient(client)
	radius := ix.ExpectedNNDistance(nnK)
	cc := &churnClient{c: client, base: st.http.url, in: in, bodies: encodeQueries(in.pool, radius, nnK), radius: radius}

	rng := rand.New(rand.NewSource(9))
	warm, err := blockMix(20, churnWarmBlock, len(in.pool), 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := blockMix(160, churnBlock, len(in.pool), 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	live := newLiveSet(in.objects)
	for _, p := range [][]opPlan{warm, plan} {
		res := cc.openLoop(p, 300*time.Millisecond, live)
		if res.rec.total() != int64(len(p)) || res.rec.tally[outOK] != int64(len(p)) {
			t.Fatalf("open loop outcomes %v for %d operations", res.rec.tally, len(p))
		}
	}
	if want := len(in.objects) + 16 + 32 - 4 - 8; len(live.objs) != want {
		t.Fatalf("live set holds %d objects, want %d", len(live.objs), want)
	}
	rec := cc.quiescentCheck(live, len(in.pool))
	if rec.tally[outOK] != rec.total() {
		t.Fatalf("quiescent check outcomes %v", rec.tally)
	}
}
