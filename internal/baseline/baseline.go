// Package baseline implements the comparison algorithms that reproduce
// the Table 1 landscape and the combined-complexity contrast of
// experiment E5:
//
//   - RebuildEnumerator: updates recompute the whole enumeration
//     structure from scratch (linear update time) — the static
//     algorithms of Bagan / Kazana-Segoufin made update-aware naively;
//   - NaiveDelay: the paper's own pipeline but with the naive box
//     enumeration, whose delay grows with the circuit depth — the
//     polylog-delay regime of Losemann-Martens;
//   - DeterminizeFirst: determinizes the query automaton before running
//     the pipeline — the prior-work requirement the paper's combined
//     tractability removes (exponential in |Q|).
package baseline

import (
	"fmt"
	"iter"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/forest"
	"repro/internal/tree"
	"repro/internal/tva"
)

// RebuildEnumerator re-runs the full preprocessing on every update. Its
// enumeration matches the paper's (indexed, constant delay); only the
// update cost differs: Θ(|T|) per edit.
type RebuildEnumerator struct {
	t    *tree.Unranked
	q    *tva.Unranked
	snap *engine.Snapshot
	opts engine.Options
}

// NewRebuildEnumerator preprocesses once.
func NewRebuildEnumerator(t *tree.Unranked, q *tva.Unranked, opts engine.Options) (*RebuildEnumerator, error) {
	r := &RebuildEnumerator{t: t, q: q, opts: opts}
	if err := r.rebuild(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *RebuildEnumerator) rebuild() error {
	s := engine.NewTreeSet(r.t.Clone())
	id, err := s.Register(r.q, r.opts)
	if err != nil {
		return err
	}
	r.snap = s.Snapshot().Query(id)
	return nil
}

// Tree returns the maintained tree.
func (r *RebuildEnumerator) Tree() *tree.Unranked { return r.t }

// Apply edits the tree and rebuilds from scratch, returning the ID the
// update created (tree.InvalidNode if none). It takes the same updates
// as engine.TreeSet.Apply; a grafted copy's node IDs match the engine's
// only if both sides consume IDs in lockstep, which holds when the same
// edit script drives both.
func (r *RebuildEnumerator) Apply(u engine.Update) (tree.NodeID, error) {
	v, err := r.edit(u)
	if err != nil {
		return tree.InvalidNode, err
	}
	return v, r.rebuild()
}

// edit applies one update to the plain tree.
func (r *RebuildEnumerator) edit(u engine.Update) (tree.NodeID, error) {
	var n *tree.UNode
	var err error
	switch u.Op {
	case engine.OpRelabel:
		return tree.InvalidNode, r.t.Relabel(u.Node, u.Label)
	case engine.OpDelete:
		return tree.InvalidNode, r.t.Delete(u.Node)
	case engine.OpDeleteSubtree:
		_, _, err = r.t.DeleteSubtree(u.Node)
		return tree.InvalidNode, err
	case engine.OpMoveSubtreeFirstChild:
		return tree.InvalidNode, r.t.MoveSubtreeFirstChild(u.Node, u.Dest)
	case engine.OpMoveSubtreeRightSibling:
		return tree.InvalidNode, r.t.MoveSubtreeRightSibling(u.Node, u.Dest)
	case engine.OpInsertFirstChild:
		n, err = r.t.InsertFirstChild(u.Node, u.Label)
	case engine.OpInsertRightSibling:
		n, err = r.t.InsertRightSibling(u.Node, u.Label)
	case engine.OpInsertSubtreeFirstChild:
		n, err = r.t.GraftFirstChild(u.Node, u.Fragment)
	case engine.OpInsertSubtreeRightSibling:
		n, err = r.t.GraftRightSibling(u.Node, u.Fragment)
	default:
		return tree.InvalidNode, fmt.Errorf("baseline: update %v is not a tree operation", u.Op)
	}
	if err != nil {
		return tree.InvalidNode, err
	}
	return n.ID, nil
}

// Results enumerates on the current structure.
func (r *RebuildEnumerator) Results() iter.Seq[tree.Assignment] { return r.snap.Results() }

// Count returns the number of results on the current structure.
func (r *RebuildEnumerator) Count() int { return r.snap.Count() }

// DeterminizeFirstStats preprocesses the query by translating it to the
// binary term alphabet and then determinizing, returning the state and
// transition counts of both routes. Experiment E5 sweeps |Q| and shows
// the nondeterministic route staying polynomial while determinization
// explodes; the numbers themselves are the result (the determinized
// automaton still runs through the same pipeline).
type DeterminizeFirstStats struct {
	NondetStates int
	NondetSize   int
	DetStates    int
	DetSize      int
}

// DeterminizeFirst translates and then determinizes the query automaton,
// returning the determinized binary TVA and the size comparison.
func DeterminizeFirst(q *tva.Unranked) (*tva.Binary, DeterminizeFirstStats, error) {
	nb, err := forest.Translate(q)
	if err != nil {
		return nil, DeterminizeFirstStats{}, err
	}
	db := tva.Determinize(nb).Trim()
	return db, DeterminizeFirstStats{
		NondetStates: nb.NumStates,
		NondetSize:   nb.Size(),
		DetStates:    db.NumStates,
		DetSize:      db.Size(),
	}, nil
}

// StaticBinaryRelabel is the [Amarilli-Bourhis-Mengel 2018] style
// comparison point: a circuit built directly on a binary tree (no forest
// encoding), supporting only relabel updates with cost proportional to
// the depth of that tree. Used by the E8 ablation.
type StaticBinaryRelabel struct {
	builder *circuit.Builder
	tree    *tree.Binary
	boxes   map[*tree.BNode]*enumerate.IndexedBox
	parents map[*tree.BNode]*tree.BNode
	root    *enumerate.IndexedBox
	mode    enumerate.Mode
}

// NewStaticBinaryRelabel builds the circuit bottom-up on the binary tree
// as-is.
func NewStaticBinaryRelabel(t *tree.Binary, a *tva.Binary, mode enumerate.Mode) (*StaticBinaryRelabel, error) {
	h := a
	if !a.Homogenized {
		h = a.Homogenize()
	}
	bd, err := circuit.NewBuilder(h)
	if err != nil {
		return nil, err
	}
	s := &StaticBinaryRelabel{
		builder: bd,
		tree:    t,
		boxes:   map[*tree.BNode]*enumerate.IndexedBox{},
		parents: map[*tree.BNode]*tree.BNode{},
		mode:    mode,
	}
	indexed := mode == enumerate.ModeIndexed
	var rec func(n *tree.BNode) *enumerate.IndexedBox
	rec = func(n *tree.BNode) *enumerate.IndexedBox {
		var b *enumerate.IndexedBox
		if n.IsLeaf() {
			b = enumerate.Wrap(bd.LeafBox(n.Label, n.ID), nil, nil, indexed)
		} else {
			s.parents[n.Left] = n
			s.parents[n.Right] = n
			l, r := rec(n.Left), rec(n.Right)
			b = enumerate.Wrap(bd.InnerBox(n.Label, n.ID, l.Box, r.Box), l, r, indexed)
		}
		s.boxes[n] = b
		return b
	}
	s.root = rec(t.Root)
	return s, nil
}

// Relabel updates a node label and rebuilds the boxes on the path to the
// root: O(depth(T)·poly(|Q|)), the cost the balanced encoding avoids.
func (s *StaticBinaryRelabel) Relabel(n *tree.BNode, l tree.Label) {
	n.Label = l
	indexed := s.mode == enumerate.ModeIndexed
	for cur := n; cur != nil; cur = s.parents[cur] {
		var b *enumerate.IndexedBox
		if cur.IsLeaf() {
			b = enumerate.Wrap(s.builder.LeafBox(cur.Label, cur.ID), nil, nil, indexed)
		} else {
			l, r := s.boxes[cur.Left], s.boxes[cur.Right]
			b = enumerate.Wrap(s.builder.InnerBox(cur.Label, cur.ID, l.Box, r.Box), l, r, indexed)
		}
		s.boxes[cur] = b
	}
	s.root = s.boxes[s.tree.Root]
}

// Results enumerates the satisfying assignments.
func (s *StaticBinaryRelabel) Results() iter.Seq[tree.Assignment] {
	gamma, emptyOK := s.builder.RootAccepting(&circuit.Circuit{Root: s.root.Box})
	return enumerate.Assignments(s.root, gamma, emptyOK, s.mode)
}

// Count drains Results.
func (s *StaticBinaryRelabel) Count() int {
	n := 0
	for range s.Results() {
		n++
	}
	return n
}
