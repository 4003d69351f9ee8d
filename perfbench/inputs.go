package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"mcost"
	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/mtree"
)

// datasetSeed fixes the indexed dataset and the build. The run's seed
// varies the traffic instead: which held-out queries form the pool,
// which objects are inserted, and the operation sequence. With the
// dataset drawn from the run's seed, the cluster layout alone moved
// lib-read's median latency by about 10% from seed to seed, more than
// any bound a regression check could use.
const datasetSeed = 1

// candidatesPerQuery sets how many held-out points the run's seed picks
// its queries and insert objects from.
const candidatesPerQuery = 20

// inputs is everything a workload generates before the program sees
// it: the indexed objects, a pool of held-out queries drawn around the
// same cluster centers, and objects for inserts.
type inputs struct {
	space   *mcost.Space
	objects []mcost.Object
	pool    []mcost.Object
	extra   []mcost.Object
}

// makeInputs draws n indexed objects from the clustered generator at
// datasetSeed, and the pool and extra objects, chosen by seed, from
// held-out points around the same centers.
func makeInputs(n int, seed int64, pool, extra int) inputs {
	d := dataset.PaperClustered(n, datasetDim, datasetSeed)
	held := dataset.PaperClusteredQueries(candidatesPerQuery*(pool+extra), datasetDim, datasetSeed).Queries
	pick := rand.New(rand.NewSource(seed)).Perm(len(held))[:pool+extra]
	qs := make([]mcost.Object, len(pick))
	for i, j := range pick {
		qs[i] = held[j]
	}
	return inputs{space: d.Space, objects: d.Objects, pool: qs[:pool], extra: qs[pool:]}
}

// buildOptions is the facade build every workload uses: default page
// size, arena layout, the fixed build seed.
func buildOptions() mcost.Options {
	return mcost.Options{Seed: datasetSeed, Arena: mcost.ArenaOptions{Enabled: true}}
}

// modelRadius is the range radius of the workloads, ExpectedNNDistance
// of the k-th neighbor, computed the way mcost.Build fits its model
// (same tree, same F-hat sample) but without the planner profile.
func modelRadius(in inputs, k int) (float64, error) {
	tree, err := mtree.New(mtree.Options{Space: in.space, Seed: datasetSeed})
	if err != nil {
		return 0, err
	}
	if err := tree.BulkLoad(in.objects); err != nil {
		return 0, err
	}
	stats, err := tree.CollectStats()
	if err != nil {
		return 0, err
	}
	f, err := distdist.Estimate(&dataset.Dataset{Name: "radius", Space: in.space, Objects: in.objects},
		distdist.Options{Seed: datasetSeed + 1})
	if err != nil {
		return 0, err
	}
	m, err := core.NewMTreeModel(f, stats)
	if err != nil {
		return 0, err
	}
	return m.ExpectedNNDist(k), nil
}

// opPlan is one planned operation: its kind and its query or object.
type opPlan struct {
	kind   opKind
	qi     int // pool index (queries) or extra index (inserts)
	target int // for deletes: the plan index of the insert it removes
}

// blockMix lays out n operations as consecutive blocks, each holding
// exactly counts[k] operations of kind k in seeded random order, so
// every prefix of the plan has the mix's proportions to within one
// block. Queries are drawn uniformly from a pool of size pool, inserts
// take extra objects in order from firstInsert on, and each delete
// targets the oldest insert before it that no other delete claimed.
func blockMix(n int, counts [numKinds]int, pool, firstInsert int, rng *rand.Rand) ([]opPlan, error) {
	var block []opKind
	for k, c := range counts {
		for i := 0; i < c; i++ {
			block = append(block, opKind(k))
		}
	}
	if len(block) == 0 || n%len(block) != 0 {
		return nil, fmt.Errorf("plan of %d operations is not a whole number of %d-operation blocks", n, len(block))
	}
	plan := make([]opPlan, 0, n)
	var unclaimed []int
	inserts := firstInsert
	for len(plan) < n {
		b := append([]opKind(nil), block...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		// A delete needs an earlier insert: move the block's first insert
		// ahead of any delete when none is pending yet.
		if len(unclaimed) == 0 {
			firstIns, firstDel := -1, -1
			for i, k := range b {
				if k == opInsert && firstIns < 0 {
					firstIns = i
				}
				if k == opDelete && firstDel < 0 {
					firstDel = i
				}
			}
			if firstDel >= 0 && firstIns > firstDel {
				b[firstIns], b[firstDel] = b[firstDel], b[firstIns]
			}
		}
		for _, k := range b {
			op := opPlan{kind: k}
			switch k {
			case opRange, opNN:
				op.qi = rng.Intn(pool)
			case opInsert:
				op.qi = inserts
				inserts++
				unclaimed = append(unclaimed, len(plan))
			case opDelete:
				if len(unclaimed) == 0 {
					return nil, fmt.Errorf("delete at %d has no earlier insert", len(plan))
				}
				op.target = unclaimed[0]
				unclaimed = unclaimed[1:]
			}
			plan = append(plan, op)
		}
	}
	return plan, nil
}

// key is one answer entry; answers compare as (distance, OID)-sorted
// key lists.
type key struct {
	oid  uint64
	dist float64
}

type answer []key

func sortAnswer(a answer) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].dist != a[j].dist {
			return a[i].dist < a[j].dist
		}
		return a[i].oid < a[j].oid
	})
}

// canonical returns the matches as a (distance, OID)-sorted answer.
func canonical(ms []mcost.Match) answer {
	a := make(answer, len(ms))
	for i, m := range ms {
		a[i] = key{m.OID, m.Distance}
	}
	sortAnswer(a)
	return a
}

func (a answer) equal(b answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracle holds the exact answers for the first queries of a pool,
// computed by brute force with mtree.LinearScanRange / LinearScanNN
// (OID = position in the indexed slice).
type oracle struct {
	rng, nn []answer
}

func buildOracle(in inputs, radius float64, k int) *oracle {
	o := &oracle{rng: make([]answer, len(in.pool)), nn: make([]answer, len(in.pool))}
	for i, q := range in.pool {
		o.rng[i] = canonical(mtree.LinearScanRange(in.objects, in.space, q, radius))
		o.nn[i] = canonical(mtree.LinearScanNN(in.objects, in.space, q, k))
	}
	return o
}

// liveSet is the indexed set implied by acknowledged writes: objects
// with their server-assigned OIDs.
type liveSet struct {
	objs map[uint64]mcost.Object
}

func newLiveSet(objects []mcost.Object) *liveSet {
	l := &liveSet{objs: make(map[uint64]mcost.Object, len(objects))}
	for i, o := range objects {
		l.objs[uint64(i)] = o
	}
	return l
}

// brute answers a range (k == 0) or k-NN query over the live set.
func (l *liveSet) brute(space *mcost.Space, q mcost.Object, radius float64, k int) answer {
	all := make(answer, 0, len(l.objs))
	for oid, o := range l.objs {
		d := space.Distance(q, o)
		if k > 0 || d <= radius {
			all = append(all, key{oid, d})
		}
	}
	sortAnswer(all)
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// Request bodies, encoded once per pool query so the clients spend no
// time marshalling. encoding/json writes float64 in the shortest form
// that round-trips, so the server decodes the generated query exactly.
// Marshal cannot fail on these shapes: the generated coordinates are
// finite.
func rangeBody(q mcost.Object, radius float64) []byte {
	b, _ := json.Marshal(struct {
		Query  mcost.Object `json:"query"`
		Radius float64      `json:"radius"`
	}{q, radius})
	return b
}

func nnBody(q mcost.Object, k int) []byte {
	b, _ := json.Marshal(struct {
		Query mcost.Object `json:"query"`
		K     int          `json:"k"`
	}{q, k})
	return b
}

func insertBody(obj mcost.Object) []byte {
	b, _ := json.Marshal(struct {
		Object mcost.Object `json:"object"`
	}{obj})
	return b
}

func deleteBody(obj mcost.Object, oid uint64) []byte {
	b, _ := json.Marshal(struct {
		Object mcost.Object `json:"object"`
		OID    uint64       `json:"oid"`
	}{obj, oid})
	return b
}
