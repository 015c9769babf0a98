package forest

import (
	"fmt"

	"repro/internal/tree"
)

// Word maintains a nonempty word as a balanced ⊕HH-only forest algebra
// term over its letters (the word specialization of Section 8 /
// Corollary 8.4: a word is a forest of single-node trees). Letters carry
// stable IDs so that assignments survive edits at other positions. The
// word shares the whole splice/rebalance/dirty machinery with Forest
// through the embedded editCore: edits publish fresh nodes along the
// trunk by path copying and share untouched subtrees, so circuit boxes
// attached to superseded nodes stay valid for concurrent readers of
// older versions. The structural edits (range move/insert/delete/concat
// and the document split, see bulk.go) are rope split/join over the same
// core.
type Word struct {
	editCore

	leafOf map[tree.NodeID]*Node
	nextID tree.NodeID
	size   int

	// ropeCands collects fresh rope-join nodes exceeding their height
	// budget during one structural edit; drained into structuralFixup.
	ropeCands []*Node
}

// NewWord builds the balanced term for the given nonempty word. This is
// the word bulk load: one O(n) balanced build instead of n inserts.
func NewWord(letters []tree.Label) (*Word, error) {
	if len(letters) == 0 {
		return nil, fmt.Errorf("forest: the empty word has no term encoding")
	}
	w := &Word{
		editCore: editCore{HeightFactor: 1.4, HeightBase: 6},
		leafOf:   map[tree.NodeID]*Node{},
	}
	w.owner = w
	leaves := make([]*Node, len(letters))
	for i, l := range letters {
		leaves[i] = w.newLetter(l)
	}
	w.Root = w.buildBalanced(leaves)
	w.size = len(letters)
	return w, nil
}

func (w *Word) newLetter(l tree.Label) *Node {
	n := &Node{Op: LeafTree, Label: l, TreeID: w.nextID, Weight: 1, HoleNode: tree.InvalidNode}
	w.leafOf[n.TreeID] = n
	w.nextID++
	w.record(n)
	return n
}

// Len returns the current word length.
func (w *Word) Len() int { return w.size }

// Leaf returns the term leaf of a letter ID.
func (w *Word) Leaf(id tree.NodeID) *Node { return w.leafOf[id] }

// Letters returns the word as (IDs, labels) in order.
func (w *Word) Letters() ([]tree.NodeID, []tree.Label) {
	ids := make([]tree.NodeID, 0, w.size)
	labels := make([]tree.Label, 0, w.size)
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.IsLeaf() {
			ids = append(ids, n.TreeID)
			labels = append(labels, n.Label)
			return
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(w.Root)
	return ids, labels
}

// IDAt returns the letter ID at 0-based position i, navigating by
// subtree weights in O(log n).
func (w *Word) IDAt(i int) (tree.NodeID, error) {
	if i < 0 || i >= w.size {
		return 0, fmt.Errorf("forest: position %d out of range [0,%d)", i, w.size)
	}
	n := w.Root
	for !n.IsLeaf() {
		if i < n.Left.Weight {
			n = n.Left
		} else {
			i -= n.Left.Weight
			n = n.Right
		}
	}
	return n.TreeID, nil
}

func (w *Word) buildBalanced(leaves []*Node) *Node {
	if len(leaves) == 1 {
		return leaves[0]
	}
	mid := len(leaves) / 2
	return w.newInner(w.buildBalanced(leaves[:mid]), w.buildBalanced(leaves[mid:]))
}

func (w *Word) newInner(l, r *Node) *Node {
	n := &Node{Op: ConcatHH, Left: l, Right: r}
	l.Parent = n
	r.Parent = n
	n.update()
	w.record(n)
	return n
}

// joinInner is the editCore allocation hook (termOwner); a word term is
// ⊕HH-only, so the operator is fixed.
func (w *Word) joinInner(op Op, l, r *Node) *Node {
	if op != ConcatHH {
		panic("forest: non-⊕HH operator in a word term")
	}
	return w.newInner(l, r)
}

// rebuildSubterm rebuilds the subterm over its letter leaves, which are
// reused (their labels, and hence their circuit boxes, are unchanged),
// then publishes the balanced replacement by path copying (termOwner
// hook).
func (w *Word) rebuildSubterm(t *Node) {
	w.Rebuilds++
	w.RebuiltWeight += t.Weight
	var leaves []*Node
	var rec func(x *Node)
	rec = func(x *Node) {
		if x.IsLeaf() {
			leaves = append(leaves, x)
			return
		}
		rec(x.Left)
		rec(x.Right)
		w.retire(x) // inner nodes are replaced; the letter leaves are reused
	}
	rec(t)
	p, wasLeft := slotOf(t)
	nt := w.buildBalanced(leaves)
	w.spliceUp(p, wasLeft, nt)
}

// Relabel replaces the letter with the given ID: a fresh leaf with the
// same stable ID takes the old one's place.
func (w *Word) Relabel(id tree.NodeID, l tree.Label) error {
	old, ok := w.leafOf[id]
	if !ok {
		return fmt.Errorf("forest: letter %d does not exist", id)
	}
	p, wasLeft := slotOf(old)
	leaf := &Node{Op: LeafTree, Label: l, TreeID: id, Weight: 1, HoleNode: tree.InvalidNode}
	w.leafOf[id] = leaf
	w.record(leaf)
	w.recordPrev(leaf, old)
	w.retire(old)
	w.spliceUp(p, wasLeft, leaf)
	return nil
}

// InsertAfter inserts a new letter right after the letter with the given
// ID, returning the new letter's ID.
func (w *Word) InsertAfter(id tree.NodeID, l tree.Label) (tree.NodeID, error) {
	return w.insertBeside(id, l, false)
}

// InsertBefore inserts a new letter right before the letter with the
// given ID (needed to prepend at position 0).
func (w *Word) InsertBefore(id tree.NodeID, l tree.Label) (tree.NodeID, error) {
	return w.insertBeside(id, l, true)
}

func (w *Word) insertBeside(id tree.NodeID, l tree.Label, before bool) (tree.NodeID, error) {
	s, ok := w.leafOf[id]
	if !ok {
		return 0, fmt.Errorf("forest: letter %d does not exist", id)
	}
	p, wasLeft := slotOf(s)
	lv := w.newLetter(l)
	var nn *Node
	if before {
		nn = w.newInner(lv, s)
	} else {
		nn = w.newInner(s, lv)
	}
	w.size++
	w.spliceUp(p, wasLeft, nn)
	return lv.TreeID, nil
}

// Delete removes the letter with the given ID; the word must stay
// nonempty.
func (w *Word) Delete(id tree.NodeID) error {
	s, ok := w.leafOf[id]
	if !ok {
		return fmt.Errorf("forest: letter %d does not exist", id)
	}
	if w.size == 1 {
		return fmt.Errorf("forest: cannot delete the last letter")
	}
	p := s.Parent
	sibling := p.Left
	if sibling == s {
		sibling = p.Right
	}
	gp, wasLeft := slotOf(p)
	delete(w.leafOf, id)
	w.size--
	w.retire(s)
	w.retire(p)
	w.spliceUp(gp, wasLeft, sibling)
	return nil
}
