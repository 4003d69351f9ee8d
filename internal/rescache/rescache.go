// Package rescache is a metric-exact result cache: a sharded LRU of
// recent range and k-NN result sets keyed in the metric space itself.
//
// The triangle inequality turns a cached result set into a verified
// index region. A cached range result for (Q′, r′) holds every object
// within r′ of Q′, so for a new query (Q, r) with d(Q,Q′) + r ≤ r′ the
// ball of Q is contained in the ball of Q′: the cached set is a proven
// superset and the exact answer is one distance computation (to the
// cached center) plus a filter over the cached matches — no traversal,
// no approximation. A k-NN query is answered from a cached superset
// when its k-th filtered distance d_k satisfies d_k ≤ r′ − d(Q,Q′):
// any object outside the cached ball is then provably farther than the
// k-th candidate, so the filtered top k is the true top k.
//
// Cached k-NN result sets are reused the same way with one weakening:
// a top-k set for Q′ is only guaranteed to contain every object
// *strictly* inside its k-th distance (ties at the boundary may have
// been dropped), so k-NN-sourced entries are open balls and every
// containment test against them is strict.
//
// Probing is cost-driven. The caller passes the cost model's L-MCM
// prediction for the traversal the cache would avoid; the cache only
// spends probe distances while their count stays under the hit-rate-
// discounted prediction (expected probe cost must undercut the expected
// traversal savings), so a workload that never repeats itself degrades
// to a near-free no-op. Eviction is likewise cost-weighted: when a
// shard is full it evicts, among the least-recent entries, the one
// whose hits have saved the least predicted traversal cost — an
// expensive-to-recompute entry outlives a cheap one of equal recency.
//
// Exactness contract: probe distances are computed with the same
// DistanceFunc the index uses, cached range sets preserve the engine's
// emission order (a query-independent total order — tree DFS position,
// or shard-concatenated DFS position for a sharded engine), and
// filtering preserves subset order; k-NN answers are returned in the
// engines' canonical (distance, OID) order. Hit results are therefore
// bit-identical to direct execution. Entries must only be created from
// complete, error-free results (never budget-exhausted partials), and
// the cache must be Reset when the underlying index mutates.
package rescache

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

// DefaultShards is the lock-sharding factor when Config.Shards is zero.
const DefaultShards = 8

// DefaultMaxProbe caps the cached centers examined per probe when
// Config.MaxProbe is zero. The cost gate usually stops a probe earlier;
// the cap bounds the worst case against a huge predicted traversal.
const DefaultMaxProbe = 64

// evictSample is how many least-recent entries compete on saved cost
// when a full shard evicts. Sampling from the LRU tail keeps eviction
// O(1) while still letting an expensive entry outlive a cheap one.
const evictSample = 4

// Config assembles a Cache.
type Config struct {
	// Entries caps the total cached result sets across all shards
	// (required, > 0).
	Entries int
	// Shards is the lock-sharding factor (0 = DefaultShards). Entries
	// are spread by a fingerprint of their center, so an exactly
	// repeated query lands in one shard's MRU position.
	Shards int
	// MaxRadius rejects range entries with a larger radius (0 = no
	// limit): wide balls carry large result sets and rarely contain
	// later queries, so they mostly cost memory.
	MaxRadius float64
	// MaxProbe caps the cached centers examined per probe
	// (0 = DefaultMaxProbe).
	MaxProbe int
	// Dist is the index's own distance function (required). Probe and
	// filter distances must be computed by exactly the function the
	// traversal would have used, or hit results stop being bit-identical.
	Dist metric.DistanceFunc
}

// entry is one cached result set: the ball it verifies plus the matches
// inside it. Entries are immutable after insertion (probes read them
// without the shard lock); only the LRU bookkeeping mutates under lock.
type entry struct {
	fp     uint64
	center metric.Object
	// epoch is the cache's write epoch at insertion. A probe only trusts
	// entries from the current epoch: any index mutation bumps the epoch
	// (see BumpEpoch), so result sets proven against the old index can
	// never answer a post-write query.
	epoch uint64
	// radius is the verified ball radius: the query radius for a
	// range-sourced entry, the k-th neighbor distance for a k-NN-sourced
	// one.
	radius float64
	// open marks a k-NN-sourced entry: the set is only guaranteed to
	// hold objects *strictly* inside radius, so containment tests
	// against it are strict.
	open bool
	// rangeOrdered reports that matches preserve the engine's range
	// emission order (a query-independent total order on objects). Only
	// such entries may answer range queries: filtering preserves the
	// order a direct traversal would emit. k-NN-sourced entries are
	// (distance, OID)-ordered instead and answer only k-NN queries.
	rangeOrdered bool
	matches      []mtree.Match
	// value is the scalar traversal cost (predicted node reads +
	// distance computations) one hit on this entry saves; hits
	// accumulate it into the eviction weight.
	value float64
	hits  atomic.Int64

	elem    *list.Element
	evicted bool
}

// weight is the eviction score: the predicted traversal cost this entry
// has saved so far, plus the cost the next hit would save. Caller holds
// the shard lock.
func (e *entry) weight() float64 { return e.value * float64(1+e.hits.Load()) }

type cacheShard struct {
	mu sync.Mutex
	ll *list.List // of *entry; front = most recent
}

// Cache is the sharded metric-exact result cache. It is safe for
// concurrent use.
type Cache struct {
	cfg      Config
	perShard int
	shards   []*cacheShard

	hits       atomic.Int64
	misses     atomic.Int64
	probeDists atomic.Int64
	evictions  atomic.Int64

	// hitRate is an EWMA of probe outcomes (stored as math.Float64bits),
	// seeding the cost gate's expected savings. It starts optimistic so
	// a fresh cache probes at all, and is floored so a cold streak can
	// recover.
	hitRate atomic.Uint64

	// epoch is the write epoch: entries are stamped with it on insert
	// and ignored by probes once it moves on.
	epoch atomic.Uint64
}

const (
	hitRateInit  = 0.5
	hitRateAlpha = 0.05
	hitRateFloor = 0.02
)

// New validates cfg and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Entries <= 0 {
		return nil, errors.New("rescache: Entries must be positive")
	}
	if cfg.Dist == nil {
		return nil, errors.New("rescache: nil distance function")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards > cfg.Entries {
		cfg.Shards = cfg.Entries
	}
	if cfg.MaxProbe <= 0 {
		cfg.MaxProbe = DefaultMaxProbe
	}
	c := &Cache{
		cfg:      cfg,
		perShard: (cfg.Entries + cfg.Shards - 1) / cfg.Shards,
		shards:   make([]*cacheShard, cfg.Shards),
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{ll: list.New()}
	}
	c.hitRate.Store(math.Float64bits(hitRateInit))
	return c, nil
}

// Stats is a point-in-time view of the cache's work.
//
// Entries dropped because a write made them stale (see BumpEpoch) are
// not Evictions: they leave Entries at once and are counted nowhere.
// Evictions counts only entries removed to make room for an insert.
type Stats struct {
	Hits       int64 // probes answered exactly from a cached superset
	Misses     int64 // Get calls that fell through to the engine
	ProbeDists int64 // distance computations spent probing and filtering
	Evictions  int64 // entries removed by a full shard to admit a new one
	Entries    int   // live entries; never counts a stale one once BumpEpoch returns
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		ProbeDists: c.probeDists.Load(),
		Evictions:  c.evictions.Load(),
		Entries:    c.Len(),
	}
}

// Len returns the number of cached result sets.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// BumpEpoch invalidates every current entry in one atomic step. Call it
// after each index mutation (insert or delete): a cached set is only
// exact while the indexed objects are unchanged, and a cached ball from
// before a delete can still "prove" containment of the removed object.
// Stale entries stop answering probes as soon as the epoch moves, and
// BumpEpoch then drops them from every shard, so probes never walk
// entries that can no longer answer. A Put stamped with an older epoch
// is dropped on arrival (see PutRangeAt). Once BumpEpoch returns, no
// shard holds a stale entry.
//
// Ordering contract: the bump must happen after the mutation is
// applied, and results computed against the pre-write index must not be
// Put afterwards — the serving layer gets both for free by serializing
// writes against in-flight queries.
func (c *Cache) BumpEpoch() {
	cur := c.epoch.Add(1)
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*entry); e.epoch < cur {
				e.evicted = true
				e.elem = nil
				s.ll.Remove(el)
			}
			el = next
		}
		s.mu.Unlock()
	}
}

// Epoch returns the current write epoch (0 for a fresh cache).
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// Reset drops every entry. Call when the underlying index mutates: a
// cached set is only exact while the indexed objects are unchanged.
func (c *Cache) Reset() {
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			e.evicted = true
			e.elem = nil
		}
		s.ll.Init()
		s.mu.Unlock()
	}
}

// Probe is the outcome of one Get.
type Probe struct {
	// Matches is the exact result set when Hit; nil otherwise.
	Matches []mtree.Match
	// Hit reports that a cached superset proved containment.
	Hit bool
	// Dists is the distance computations the probe spent (center
	// distances plus filter distances), for the caller's accounting.
	Dists int
}

// scalar collapses a cost estimate into distance-computation units for
// the probe gate: a node read costs at least the distance computation
// it implies, so the sum is a conservative floor on traversal work.
func scalar(est core.CostEstimate) float64 { return est.Nodes + est.Dists }

func (c *Cache) loadHitRate() float64 {
	return math.Float64frombits(c.hitRate.Load())
}

// observeProbe folds one probe outcome into the hit-rate EWMA.
func (c *Cache) observeProbe(hit bool) {
	for {
		old := c.hitRate.Load()
		x := 0.0
		if hit {
			x = 1.0
		}
		next := (1-hitRateAlpha)*math.Float64frombits(old) + hitRateAlpha*x
		if next < hitRateFloor {
			next = hitRateFloor
		}
		if c.hitRate.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// distBudget is the probe gate: the number of probe distances whose
// expected cost still undercuts the expected traversal savings,
// hit-rate-discounted. Zero means the prediction is too cheap (or the
// hit rate too low) for probing to pay off.
func (c *Cache) distBudget(est core.CostEstimate) int {
	b := c.loadHitRate() * scalar(est)
	if b >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(b)
}

// snapshot copies the shard's entries most-recent-first. Entries are
// immutable, so the scan itself runs without the lock.
func (s *cacheShard) snapshot(buf []*entry) []*entry {
	s.mu.Lock()
	for el := s.ll.Front(); el != nil; el = el.Next() {
		buf = append(buf, el.Value.(*entry))
	}
	s.mu.Unlock()
	return buf
}

// touch moves a hit entry to its shard's MRU position.
func (c *Cache) touch(e *entry) {
	s := c.shards[e.fp%uint64(len(c.shards))]
	s.mu.Lock()
	if !e.evicted {
		s.ll.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	e.hits.Add(1)
}

// GetRange probes for an exact answer to range(q, radius). est is the
// cost model's prediction for the traversal a hit avoids; it gates how
// many probe distances the cache may spend.
func (c *Cache) GetRange(q metric.Object, radius float64, est core.CostEstimate) Probe {
	budget := c.distBudget(est)
	if budget < 1 {
		c.misses.Add(1)
		return Probe{}
	}
	spent, centers := 0, 0
	cur := c.epoch.Load()
	start := int(fingerprint(q) % uint64(len(c.shards)))
	var buf []*entry
	for si := 0; si < len(c.shards) && spent < budget && centers < c.cfg.MaxProbe; si++ {
		buf = c.shards[(start+si)%len(c.shards)].snapshot(buf[:0])
		for _, e := range buf {
			if spent >= budget || centers >= c.cfg.MaxProbe {
				break
			}
			// A stale ball was proven against a different index; a
			// narrower ball can never contain the query. Skip both
			// without a distance computation.
			if e.epoch != cur || !e.rangeOrdered || e.radius < radius {
				continue
			}
			dqq := c.cfg.Dist(q, e.center)
			spent++
			centers++
			// Exact repeat: d(Q,Q′) = 0 makes every object equidistant
			// from both centers, so the cached set for the same radius is
			// the answer verbatim — one distance, no filter.
			if dqq == 0 && radius == e.radius {
				c.finishProbe(e, spent)
				return Probe{Matches: e.matches, Hit: true, Dists: spent}
			}
			if dqq+radius > e.radius || (e.open && dqq+radius == e.radius) {
				continue
			}
			// Containment proven: the filter is always worth its cost —
			// it is bounded by the candidate count, which the avoided
			// traversal would have spent on the same objects anyway.
			matches, filterDists := filterRange(c.cfg.Dist, q, radius, dqq, e.matches)
			spent += filterDists
			c.finishProbe(e, spent)
			return Probe{Matches: matches, Hit: true, Dists: spent}
		}
	}
	c.probeDists.Add(int64(spent))
	c.misses.Add(1)
	if centers > 0 {
		c.observeProbe(false)
	}
	return Probe{Dists: spent}
}

// GetNN probes for an exact answer to nn(q, k). A hit requires a cached
// superset whose k-th filtered distance proves no outside object can
// displace the top k (see the package comment for the inequality).
func (c *Cache) GetNN(q metric.Object, k int, est core.CostEstimate) Probe {
	budget := c.distBudget(est)
	if budget < 1 || k <= 0 {
		c.misses.Add(1)
		return Probe{}
	}
	spent, centers := 0, 0
	cur := c.epoch.Load()
	start := int(fingerprint(q) % uint64(len(c.shards)))
	var buf []*entry
	for si := 0; si < len(c.shards) && spent < budget && centers < c.cfg.MaxProbe; si++ {
		buf = c.shards[(start+si)%len(c.shards)].snapshot(buf[:0])
		for _, e := range buf {
			if spent >= budget || centers >= c.cfg.MaxProbe {
				break
			}
			if e.epoch != cur || len(e.matches) < k {
				continue
			}
			dqq := c.cfg.Dist(q, e.center)
			spent++
			centers++
			// Exact repeat against a k-NN-sourced entry: the cached
			// answer is canonical (distance, OID)-ascending, so its first
			// k elements are the true top k for any k up to the stored
			// one — the open-ball boundary caveat doesn't apply when the
			// stored set IS the engine's own answer for this center.
			if dqq == 0 && e.open {
				c.finishProbe(e, spent)
				return Probe{Matches: e.matches[:k:k], Hit: true, Dists: spent}
			}
			// The k-NN filter prices the whole candidate set before it
			// knows whether containment holds, so it must fit the budget
			// up front.
			if spent+len(e.matches) > budget {
				continue
			}
			if dqq >= e.radius {
				continue // the k-th condition below could never hold
			}
			cand, filterDists := filterNN(c.cfg.Dist, q, e.matches)
			spent += filterDists
			if len(cand) < k {
				continue
			}
			dk := cand[k-1].Distance
			if dk > e.radius-dqq || (e.open && dk == e.radius-dqq) {
				continue
			}
			c.finishProbe(e, spent)
			return Probe{Matches: cand[:k:k], Hit: true, Dists: spent}
		}
	}
	c.probeDists.Add(int64(spent))
	c.misses.Add(1)
	if centers > 0 {
		c.observeProbe(false)
	}
	return Probe{Dists: spent}
}

// finishProbe records a hit's bookkeeping.
func (c *Cache) finishProbe(e *entry, spent int) {
	c.touch(e)
	c.probeDists.Add(int64(spent))
	c.hits.Add(1)
	c.observeProbe(true)
}

// filterRange keeps the cached matches within radius of q, preserving
// superset order. The parent-distance lower bound |d(Q′,o) − d(Q,Q′)|
// excludes candidates without a distance computation; survivors get the
// exact distance the response requires.
func filterRange(dist metric.DistanceFunc, q metric.Object, radius, dqq float64, cached []mtree.Match) ([]mtree.Match, int) {
	out := make([]mtree.Match, 0, len(cached))
	dists := 0
	for _, m := range cached {
		if math.Abs(m.Distance-dqq) > radius {
			continue
		}
		d := dist(q, m.Object)
		dists++
		if d <= radius {
			out = append(out, mtree.Match{Object: m.Object, OID: m.OID, Distance: d})
		}
	}
	return out, dists
}

// filterNN re-scores every cached match against q and returns them in
// the engines' canonical (distance, OID) order.
func filterNN(dist metric.DistanceFunc, q metric.Object, cached []mtree.Match) ([]mtree.Match, int) {
	out := make([]mtree.Match, len(cached))
	for i, m := range cached {
		out[i] = mtree.Match{Object: m.Object, OID: m.OID, Distance: dist(q, m.Object)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].OID < out[j].OID
	})
	return out, len(cached)
}

// PutRange caches a complete range result. est is the traversal cost
// the entry will save per hit — the eviction weight. Callers must never
// pass partial (budget- or context-stopped) results.
func (c *Cache) PutRange(q metric.Object, radius float64, matches []mtree.Match, est core.CostEstimate) {
	c.PutRangeAt(q, radius, matches, est, c.epoch.Load())
}

// PutRangeAt is PutRange stamping the entry with the write epoch the
// caller observed before executing the query. A writer that raced the
// execution has already moved the epoch on, so the entry is stale on
// arrival and is dropped — the only race-free way to publish results
// computed outside the cache's own synchronization.
func (c *Cache) PutRangeAt(q metric.Object, radius float64, matches []mtree.Match, est core.CostEstimate, epoch uint64) {
	if radius < 0 || (c.cfg.MaxRadius > 0 && radius > c.cfg.MaxRadius) {
		return
	}
	c.insert(&entry{
		epoch:        epoch,
		center:       q,
		radius:       radius,
		rangeOrdered: true,
		matches:      cloneMatches(matches),
		value:        scalar(est),
	})
}

// PutNN caches a complete k-NN result as an open ball of the k-th
// neighbor distance. Results shorter than k (dataset smaller than k) or
// with a zero k-th distance verify no ball and are skipped.
func (c *Cache) PutNN(q metric.Object, k int, matches []mtree.Match, est core.CostEstimate) {
	c.PutNNAt(q, k, matches, est, c.epoch.Load())
}

// PutNNAt is PutNN stamping the caller-observed write epoch (see
// PutRangeAt).
func (c *Cache) PutNNAt(q metric.Object, k int, matches []mtree.Match, est core.CostEstimate, epoch uint64) {
	if len(matches) < k || k <= 0 {
		return
	}
	rk := matches[k-1].Distance
	if rk <= 0 || (c.cfg.MaxRadius > 0 && rk > c.cfg.MaxRadius) {
		return
	}
	c.insert(&entry{
		epoch:   epoch,
		center:  q,
		radius:  rk,
		open:    true,
		matches: cloneMatches(matches[:k]),
		value:   scalar(est),
	})
}

// insert adds e to its fingerprint shard, replacing an entry for the
// same center and ball, and evicts by weighted LRU when the shard is
// full. An entry from a past epoch is dropped instead: it could never
// answer, and BumpEpoch has already swept (or is about to sweep) this
// shard, so checking under the shard lock keeps stale entries out.
func (c *Cache) insert(e *entry) {
	e.fp = fingerprint(e.center)
	s := c.shards[e.fp%uint64(len(c.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.epoch < c.epoch.Load() {
		return
	}
	// Replace an identical ball: a miss storm (concurrent misses on the
	// same query before the first Put lands) must not fill the shard
	// with duplicates. The fingerprint narrows candidates; the distance
	// check makes replacement exact.
	for el := s.ll.Front(); el != nil; el = el.Next() {
		old := el.Value.(*entry)
		if old.fp == e.fp && old.radius == e.radius && old.open == e.open &&
			old.rangeOrdered == e.rangeOrdered && c.cfg.Dist(old.center, e.center) == 0 {
			old.evicted = true
			s.ll.Remove(el)
			break
		}
	}
	for s.ll.Len() >= c.perShard {
		c.evictLocked(s)
	}
	e.elem = s.ll.PushFront(e)
}

// evictLocked removes the lowest-weight entry among the evictSample
// least-recent ones: recency picks the candidates, saved traversal cost
// picks the victim. Entries from a past write epoch can never answer a
// probe again, so they lose every contest; they only exist here while a
// BumpEpoch sweep has yet to reach this shard. Caller holds s.mu.
func (c *Cache) evictLocked(s *cacheShard) {
	victim := s.ll.Back()
	if victim == nil {
		return
	}
	cur := c.epoch.Load()
	weight := func(el *list.Element) float64 {
		e := el.Value.(*entry)
		if e.epoch != cur {
			return -1
		}
		return e.weight()
	}
	el := victim
	for i := 1; i < evictSample && el != nil; i++ {
		el = el.Prev()
		if el != nil && weight(el) < weight(victim) {
			victim = el
		}
	}
	victim.Value.(*entry).evicted = true
	victim.Value.(*entry).elem = nil
	s.ll.Remove(victim)
	c.evictions.Add(1)
}

func cloneMatches(ms []mtree.Match) []mtree.Match {
	out := make([]mtree.Match, len(ms))
	copy(out, ms)
	return out
}

// fingerprint hashes an object's identity for shard placement and
// duplicate narrowing. Equal objects must hash equal; collisions are
// resolved by a distance check before anything depends on identity.
func fingerprint(o metric.Object) uint64 {
	h := fnv.New64a()
	switch v := o.(type) {
	case metric.Vector:
		var b [8]byte
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			_, _ = h.Write(b[:])
		}
	case string:
		_, _ = io.WriteString(h, v)
	default:
		_, _ = fmt.Fprintf(h, "%v", v)
	}
	return h.Sum64()
}
