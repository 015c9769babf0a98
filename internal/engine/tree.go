package engine

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/forest"
	"repro/internal/tree"
	"repro/internal/tva"
)

// TreeSet is the multi-query engine of Theorem 8.1 over one dynamic
// unranked tree: it maintains the satisfying assignments of any number
// of standing stepwise-TVA queries, registered and unregistered at
// runtime, under the edit operations of Definition 7.1 and the
// structural subtree edits. Every edit is an Update applied by
// ApplyBatch (or Apply, a batch of one), publishing ONE MultiSnapshot
// covering every standing query; any number of goroutines read via
// Snapshot. The term/forest work of an edit is shared across all
// queries — only the logarithmic box/index repair scales with the query
// count.
type TreeSet struct {
	Engine
	f *forest.Forest
}

// NewTreeSet encodes the tree as a balanced term (linear in |T| up to
// the balancing's O(log) factor documented in DESIGN.md) and publishes
// an empty MultiSnapshot. Queries are added with Register.
func NewTreeSet(t *tree.Unranked) *TreeSet {
	s := &TreeSet{f: forest.New(t)}
	s.initEngine(s.f, s.edit)
	return s
}

// Register adds a standing query: it translates the stepwise TVA to the
// term alphabet, homogenizes it, builds the query's (box, index) tree
// against the CURRENT term version — polynomial in |Q|, linear in |T|,
// independent of the other registered queries — and publishes a
// MultiSnapshot including the new query. A query registered after any
// number of edits answers exactly as if it had been registered from the
// start.
func (s *TreeSet) Register(query *tva.Unranked, opts Options) (QueryID, error) {
	ab, err := forest.Translate(query)
	if err != nil {
		return 0, err
	}
	builder, err := circuit.NewBuilder(ab.Homogenize())
	if err != nil {
		return 0, fmt.Errorf("engine: %w", err)
	}
	return s.register(builder, ab.NumStates, opts), nil
}

// Tree returns the underlying tree. It is owned by the writer: read it
// only from the goroutine applying updates (concurrent readers should
// work from snapshots, which are self-contained).
func (s *TreeSet) Tree() *tree.Unranked { return s.f.Tree }

// edit applies one tree update to the forest (the tree half of
// ApplyBatch's edit switch), returning the ID it created.
func (s *TreeSet) edit(u Update) (tree.NodeID, error) {
	switch u.Op {
	case OpRelabel:
		return tree.InvalidNode, s.f.Relabel(u.Node, u.Label)
	case OpInsertFirstChild:
		return s.f.InsertFirstChild(u.Node, u.Label)
	case OpInsertRightSibling:
		return s.f.InsertRightSibling(u.Node, u.Label)
	case OpDelete:
		return tree.InvalidNode, s.f.Delete(u.Node)
	case OpDeleteSubtree:
		return tree.InvalidNode, s.f.DeleteSubtree(u.Node)
	case OpMoveSubtreeFirstChild:
		return tree.InvalidNode, s.f.MoveSubtreeFirstChild(u.Node, u.Dest)
	case OpMoveSubtreeRightSibling:
		return tree.InvalidNode, s.f.MoveSubtreeRightSibling(u.Node, u.Dest)
	case OpInsertSubtreeFirstChild:
		return s.f.InsertSubtreeFirstChild(u.Node, u.Fragment)
	case OpInsertSubtreeRightSibling:
		return s.f.InsertSubtreeRightSibling(u.Node, u.Fragment)
	}
	return tree.InvalidNode, fmt.Errorf("engine: update %v is not a tree operation", u.Op)
}
