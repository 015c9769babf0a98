package forest

// TrunkDelta is one batch's hollowing (Definition 7.2: a new trunk of
// term nodes whose □-leaves are reused subterms of the previous term) in
// immutable, REPLAYABLE form: the freshly built trunk nodes (children
// before parents, deduplicated), the nodes the batch dropped from the
// term, and the resulting term root. Unlike the consume-once Drain/DrainRetired
// protocol it is a plain value — once produced it never changes, every
// node reachable from it is frozen (path copying never mutates published
// nodes), and any number of consumers may replay it concurrently or
// after the fact. The dynamic engine relies on both properties: the
// parallel write path replays one delta from many per-query workers at
// once, and lock-light registration replays the deltas that were
// published while a new query's attachment tree was being built off the
// writer's critical section.
type TrunkDelta struct {
	// Fresh lists the term nodes needing per-consumer (re)construction,
	// children before parents.
	Fresh []*Node
	// Prev, when non-nil, is aligned with Fresh: Prev[i] is the
	// pre-batch node Fresh[i] path-copied (nil when Fresh[i] is
	// structurally new). It is a reuse HINT for signature-pruned repair
	// — consumers must verify structural equality before acting on it —
	// and carries no correctness obligation: an absent or stale entry
	// only costs a rebuild.
	Prev []*Node
	// Retired lists the term nodes dropped from the term by this batch:
	// consumers release their attachments. Unknown nodes (never attached,
	// or created and dropped within one batch) are a no-op.
	Retired []*Node
	// Moved lists the roots of maximal subterms a structural edit of this
	// batch relocated WITHOUT rebuilding (a moved subtree's wholesale-
	// shared chunks, a rope move's shared range piece). Every node under a
	// Moved root keeps its pointer identity, is neither Fresh nor Retired,
	// and keeps whatever attachments a consumer froze for it — consumers
	// only account for the reuse (the engine credits BoxesReused). Purely
	// informational: skipping it costs nothing but accounting.
	Moved []*Node
	// Root is the term root after the batch.
	Root *Node
}

// Empty reports whether the delta carries no trunk work (the batch
// changed nothing, or the delta was already drained).
func (d TrunkDelta) Empty() bool {
	return len(d.Fresh) == 0 && len(d.Retired) == 0 && len(d.Moved) == 0
}

// PrevOf returns the reuse hint for Fresh[i], or nil.
func (d TrunkDelta) PrevOf(i int) *Node {
	if i < len(d.Prev) {
		return d.Prev[i]
	}
	return nil
}

// prevSlice materializes the Prev hint list for a drained trunk from a
// recordPrev map, which is then reset (buckets kept for reuse).
func prevSlice(fresh []*Node, prev map[*Node]*Node) []*Node {
	if len(prev) == 0 {
		return nil
	}
	out := make([]*Node, len(fresh))
	for i, n := range fresh {
		out[i] = prev[n]
	}
	clear(prev)
	return out
}
