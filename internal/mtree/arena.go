package mtree

import (
	"errors"
	"fmt"
	"math"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

// Arena is a frozen snapshot of the whole tree: its nodes in DFS
// preorder (root = 0) over one contiguous []Entry slab, with child
// pointers rewritten to dense node indices, plus the kernel slabs —
// vector coordinates in one aligned float64 slab, or the string objects
// — indexed by slab offset. Queries run the same traversals as the node
// store (see view) but never touch the store: no per-node decode, no
// pager mutex, no per-entry interface dispatch on the specialized
// kinds. Results, traces, and counter totals are therefore identical.
//
// An arena is a read-only snapshot. Tree mutations (Insert, Delete,
// BulkLoad, Restore) thaw it automatically; FreezeArena rebuilds it.
type Arena struct {
	view

	// mapping is the live memory map behind the vector slab when the
	// arena was loaded via ArenaConfig.Mmap. It is intentionally NOT
	// unmapped on thaw: a query still running on a detached arena reads
	// the slab through it. Close releases it explicitly once the caller
	// knows no query uses the arena any more.
	mapping *pager.Mapping
}

// ArenaConfig configures FreezeArena.
type ArenaConfig struct {
	// Mmap serializes the frozen slabs into a file and memory-maps it
	// read-only, so concurrent shard goroutines (and separate processes
	// mapping the same file) share one physical copy of the pages with
	// no cache mutex. Only vector, edit, and hamming spaces have a slab
	// file format; other domains must freeze in-memory.
	Mmap bool
	// Path is the slab file for Mmap. Empty means a private temp file,
	// removed from the filesystem once mapped.
	Path string
}

// FreezeArena builds the arena snapshot of the current tree and routes
// all subsequent queries through it. The tree must be non-empty.
func (t *Tree) FreezeArena(cfg ArenaConfig) error {
	if t.root == pager.InvalidPage {
		return errors.New("mtree: cannot freeze an empty tree")
	}
	a, err := buildArena(t)
	if err != nil {
		return err
	}
	if cfg.Mmap {
		if err := a.remap(cfg.Path); err != nil {
			return err
		}
	}
	t.arena = a
	return nil
}

// ThawArena detaches the arena; queries go back through the node store.
// A memory-mapped arena's mapping stays alive (see Arena.mapping).
func (t *Tree) ThawArena() { t.arena = nil }

// Arena returns the attached arena, or nil when queries run through the
// node store.
func (t *Tree) Arena() *Arena { return t.arena }

// NumNodes returns the number of tree nodes captured in the arena.
func (a *Arena) NumNodes() int { return len(a.nodes) }

// Mapped reports whether the arena's slabs are backed by a memory map.
func (a *Arena) Mapped() bool { return a.mapping != nil }

// Close releases the memory map behind an mmap-backed arena. Callers
// must guarantee no query still runs on the arena. In-memory arenas
// Close to a no-op.
func (a *Arena) Close() error {
	m := a.mapping
	if m == nil {
		return nil
	}
	a.mapping = nil
	return m.Close()
}

// RangeAppend runs a range query over the arena, appending matches to
// dst and returning the extended slice. With dst capacity in place this
// is the zero-allocation hot path the CI gate pins (0 allocs/op for
// vector spaces). Results, order, traces, and counters are identical to
// Tree.Range.
func (a *Arena) RangeAppend(dst []Match, q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	if err := checkRange(q, radius); err != nil {
		return dst, err
	}
	opt.Trace.StartRange(radius)
	return a.rangeQuery(dst, q, 0, radius, opt, nil)
}

// NNAppend runs a k-NN query over the arena, appending the neighbors
// (closest first) to dst. Like RangeAppend it is allocation-free once
// dst and the pooled scratch are warm. Results are identical to
// Tree.NN.
func (a *Arena) NNAppend(dst []Match, q metric.Object, k int, opt QueryOptions) ([]Match, error) {
	if err := checkNN(q, k); err != nil {
		return dst, err
	}
	opt.Trace.StartNN(k)
	return a.nnQuery(dst, q, 0, k, math.Inf(1), opt, nil, nil)
}

// buildArena walks the tree once in DFS preorder through the store's
// uncounted peek, copying every node's entries into the slab. The
// entries keep the store's objects: in memory mode arena results are
// the very boxes the store holds; in paged mode they are the decoded
// copies peek produced (decoding always copies — see codec.go).
func buildArena(t *Tree) (*Arena, error) {
	root, err := t.store.peek(t.root)
	if err != nil {
		return nil, err
	}
	// Every node but the root has one routing entry, so a consistent
	// tree holds size + nodes - 1 entries: with these capacities the
	// slabs never regrow during the walk.
	nodes := t.store.numNodes()
	entries := t.size + nodes - 1
	a := &Arena{view: view{
		counter: t.counter,
		space:   t.counter.Space(), // accelerated view; bit-identical distances
		bound:   t.opt.Space.Bound,
		nodes:   make([]node, 0, nodes),
		base:    make([]int32, 0, nodes),
		reads:   &t.arenaReads,
	}}
	if len(root.entries) > 0 {
		switch s := root.entries[0].Object.(type) {
		case metric.Vector:
			if k := metric.VecKernelFor(t.opt.Space.Name); k != nil {
				a.kind, a.dim, a.vecK = arenaVector, len(s), k
				a.vecs = make([]float64, 0, entries*a.dim)
			}
		case string:
			switch t.opt.Space.Name {
			case "edit":
				a.kind = arenaEdit
			case "hamming":
				a.kind = arenaHamming
			}
			if a.kind != arenaGeneric {
				a.strs = make([]string, 0, entries)
			}
		}
	}

	slab := make([]Entry, 0, entries)
	var walk func(n *node) error
	walk = func(n *node) error {
		b := len(slab)
		a.nodes = append(a.nodes, node{id: pager.PageID(len(a.nodes)), leaf: n.leaf})
		a.base = append(a.base, int32(b))
		slab = append(slab, n.entries...)
		for i := range n.entries {
			switch o := n.entries[i].Object; a.kind {
			case arenaVector:
				v, ok := o.(metric.Vector)
				if !ok || len(v) != a.dim {
					return fmt.Errorf("mtree: arena freeze: entry object %T does not match %d-dimensional vector layout", o, a.dim)
				}
				a.vecs = append(a.vecs, v...)
			case arenaEdit, arenaHamming:
				s, ok := o.(string)
				if !ok {
					return fmt.Errorf("mtree: arena freeze: entry object %T in a string space", o)
				}
				a.strs = append(a.strs, s)
			}
		}
		if n.leaf {
			return nil
		}
		for i := range n.entries {
			c, err := t.store.peek(n.entries[i].Child)
			if err != nil {
				return err
			}
			slab[b+i].Child = pager.PageID(len(a.nodes))
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	// Preorder lays node i's entries out right before node i+1's.
	for i := range a.nodes {
		hi := len(slab)
		if i+1 < len(a.nodes) {
			hi = int(a.base[i+1])
		}
		a.nodes[i].entries = slab[a.base[i]:hi:hi]
	}
	return a, nil
}
