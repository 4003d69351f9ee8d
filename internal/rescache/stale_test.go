package rescache

import (
	"math"
	"reflect"
	"testing"

	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

// TestBumpEpochLeavesNoStaleEntry fills the cache, bumps the epoch, and
// checks that no probe can walk a stale entry afterwards: every shard
// is empty, a Put stamped with the old epoch is dropped on arrival, and
// probes answer exactly as a cache that never held the stale entries.
// Before the sweep, every probe after a write snapshotted and skipped
// the whole full cache.
func TestBumpEpochLeavesNoStaleEntry(t *testing.T) {
	dist := func(a, b metric.Object) float64 { return math.Abs(a.(float64) - b.(float64)) }
	cfg := Config{Entries: 32, Shards: 4, Dist: dist}
	big := core.CostEstimate{Nodes: 1e6, Dists: 1e6}
	put := func(c *Cache, i int) {
		center := float64(10 * i)
		m := []mtree.Match{{Object: center + 0.5, OID: uint64(i), Distance: 0.5}}
		c.PutRange(center, 1, m, big)
		c.PutNN(center+3, 1, []mtree.Match{{Object: center + 3.25, OID: uint64(i), Distance: 0.25}}, big)
	}
	live := func(c *Cache) (n int) {
		for _, s := range c.shards {
			n += len(s.snapshot(nil))
		}
		return n
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		put(c, i)
	}
	if n := live(c); n != cfg.Entries {
		t.Fatalf("cache holds %d entries, want it full at %d", n, cfg.Entries)
	}
	old := c.Epoch()
	c.BumpEpoch()
	if n := live(c); n != 0 {
		t.Fatalf("%d stale entries left after BumpEpoch", n)
	}
	c.PutRangeAt(0.0, 1, []mtree.Match{{Object: 0.5, OID: 0, Distance: 0.5}}, big, old)
	c.PutNNAt(3.0, 1, []mtree.Match{{Object: 3.25, OID: 0, Distance: 0.25}}, big, old)
	if n := live(c); n != 0 {
		t.Fatalf("a Put stamped with the pre-write epoch was kept (%d entries)", n)
	}
	if st := c.Stats(); st.Entries != 0 || st.Evictions == 0 {
		t.Fatalf("stats after the sweep = %+v, want no entries and the fill's evictions", st)
	}

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 180; i < 200; i++ {
		put(c, i)
		put(ref, i)
	}
	for i := 170; i < 210; i++ {
		q := float64(10*i) + 0.125
		if got, want := c.GetRange(q, 0.5, big), ref.GetRange(q, 0.5, big); !reflect.DeepEqual(got, want) {
			t.Fatalf("GetRange(%v) = %+v, a never-stale cache answers %+v", q, got, want)
		}
		if got, want := c.GetNN(q+3, 1, big), ref.GetNN(q+3, 1, big); !reflect.DeepEqual(got, want) {
			t.Fatalf("GetNN(%v) = %+v, a never-stale cache answers %+v", q+3, got, want)
		}
	}
}
