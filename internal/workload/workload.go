// Package workload provides the synthetic inputs of the experiment
// harness: tree shapes, words, queries, and update streams. Every
// experiment (see DESIGN.md §4 and cmd/benchtables) names the generator
// it uses, so results are reproducible from seeds.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
)

// Shape names accepted by Tree.
const (
	ShapeRandom = "random"
	ShapePath   = "path"
	ShapeStar   = "star"
	ShapeComb   = "comb"
	ShapeXMLish = "xmlish"
)

// Tree builds a tree of the given shape with n nodes over the alphabet
// {a, b, c} (xmlish uses element-like labels).
func Tree(shape string, n int, rng *rand.Rand) (*tree.Unranked, error) {
	switch shape {
	case ShapeRandom:
		return tva.RandomUnrankedTree(rng, n, []tree.Label{"a", "b", "c"}), nil
	case ShapePath:
		t := tree.NewUnranked("a")
		cur := t.Root.ID
		for i := 1; i < n; i++ {
			nn, err := t.InsertFirstChild(cur, pick(rng, "a", "b"))
			if err != nil {
				return nil, err
			}
			cur = nn.ID
		}
		return t, nil
	case ShapeStar:
		t := tree.NewUnranked("a")
		for i := 1; i < n; i++ {
			if _, err := t.InsertFirstChild(t.Root.ID, pick(rng, "a", "b")); err != nil {
				return nil, err
			}
		}
		return t, nil
	case ShapeComb:
		t := tree.NewUnranked("a")
		cur := t.Root.ID
		for i := 1; i < n; i += 2 {
			leaf, err := t.InsertFirstChild(cur, pick(rng, "a", "b"))
			if err != nil {
				return nil, err
			}
			nn, err := t.InsertRightSibling(leaf.ID, "a")
			if err != nil {
				return nil, err
			}
			cur = nn.ID
		}
		return t, nil
	case ShapeXMLish:
		// Document-like: moderate fanout, moderate depth.
		t := tree.NewUnranked("doc")
		frontier := []tree.NodeID{t.Root.ID}
		labels := []tree.Label{"sec", "par", "fig", "ref"}
		for t.Size() < n {
			parent := frontier[rng.Intn(len(frontier))]
			nn, err := t.InsertFirstChild(parent, labels[rng.Intn(len(labels))])
			if err != nil {
				return nil, err
			}
			if rng.Float64() < 0.6 {
				frontier = append(frontier, nn.ID)
			}
			if len(frontier) > 64 {
				frontier = frontier[len(frontier)-64:]
			}
		}
		return t, nil
	default:
		return nil, fmt.Errorf("workload: unknown shape %q", shape)
	}
}

func pick(rng *rand.Rand, ls ...tree.Label) tree.Label { return ls[rng.Intn(len(ls))] }

// Word builds a random word of length n over {a, b, c}.
func Word(n int, rng *rand.Rand) []tree.Label {
	out := make([]tree.Label, n)
	for i := range out {
		out[i] = pick(rng, "a", "b", "c")
	}
	return out
}

// TreeMutator applies engine updates to a tree and returns the ID each
// creates (tree.InvalidNode if none). engine.TreeSet and
// baseline.RebuildEnumerator both implement it, so one update stream —
// leaf or structural — drives both sides of a comparison.
type TreeMutator interface {
	Tree() *tree.Unranked
	Apply(u engine.Update) (tree.NodeID, error)
}

// Leaf-edit update constructors, shared by the editors below.
func relabel(id tree.NodeID, l tree.Label) engine.Update {
	return engine.Update{Op: engine.OpRelabel, Node: id, Label: l}
}

func insertFirstChild(id tree.NodeID, l tree.Label) engine.Update {
	return engine.Update{Op: engine.OpInsertFirstChild, Node: id, Label: l}
}

func insertRightSibling(id tree.NodeID, l tree.Label) engine.Update {
	return engine.Update{Op: engine.OpInsertRightSibling, Node: id, Label: l}
}

func deleteLeaf(id tree.NodeID) engine.Update {
	return engine.Update{Op: engine.OpDelete, Node: id}
}

// applyErr applies an update whose created ID the caller does not need.
func applyErr(m TreeMutator, u engine.Update) error {
	_, err := m.Apply(u)
	return err
}

// Edit is one update of a reproducible stream.
type Edit struct {
	Kind  int // 0 relabel, 1 insert first child, 2 insert right sibling, 3 delete
	Index int // index into the current preorder node list
	Label tree.Label
}

// RandomEdits draws a stream of e edit descriptors.
func RandomEdits(e int, rng *rand.Rand) []Edit {
	out := make([]Edit, e)
	for i := range out {
		out[i] = Edit{Kind: rng.Intn(4), Index: rng.Int(), Label: pick(rng, "a", "b", "c")}
	}
	return out
}

// Apply replays one edit descriptor on a mutator, resolving the index
// against the current tree; invalid combinations degrade to relabels so
// every descriptor performs exactly one update.
func Apply(m TreeMutator, ed Edit) error {
	nodes := m.Tree().Nodes()
	n := nodes[ed.Index%len(nodes)]
	switch ed.Kind {
	case 1:
		return applyErr(m, insertFirstChild(n.ID, ed.Label))
	case 2:
		if n.Parent != nil {
			return applyErr(m, insertRightSibling(n.ID, ed.Label))
		}
	case 3:
		if n.IsLeaf() && n.Parent != nil {
			return applyErr(m, deleteLeaf(n.ID))
		}
	}
	return applyErr(m, relabel(n.ID, ed.Label))
}

// Editor applies random edits in O(1) bookkeeping per step (unlike
// Apply, which re-lists all nodes and would pollute update-time
// measurements with Θ(n) scan cost). It tracks live node IDs itself.
type Editor struct {
	m   TreeMutator
	rng *rand.Rand
	ids []tree.NodeID
}

// NewEditor indexes the current nodes of the mutator's tree.
func NewEditor(m TreeMutator, rng *rand.Rand) *Editor {
	ed := &Editor{m: m, rng: rng}
	for _, n := range m.Tree().Nodes() {
		ed.ids = append(ed.ids, n.ID)
	}
	return ed
}

// Step performs one random edit (relabel, insert, insertR or delete).
func (ed *Editor) Step() error {
	for attempt := 0; attempt < 8; attempt++ {
		i := ed.rng.Intn(len(ed.ids))
		id := ed.ids[i]
		n := ed.m.Tree().Node(id)
		if n == nil {
			ed.ids[i] = ed.ids[len(ed.ids)-1]
			ed.ids = ed.ids[:len(ed.ids)-1]
			continue
		}
		l := pick(ed.rng, "a", "b", "c")
		switch ed.rng.Intn(4) {
		case 0:
			return applyErr(ed.m, relabel(id, l))
		case 1:
			v, err := ed.m.Apply(insertFirstChild(id, l))
			if err == nil {
				ed.ids = append(ed.ids, v)
			}
			return err
		case 2:
			if n.Parent == nil {
				continue
			}
			v, err := ed.m.Apply(insertRightSibling(id, l))
			if err == nil {
				ed.ids = append(ed.ids, v)
			}
			return err
		default:
			if !n.IsLeaf() || n.Parent == nil {
				continue
			}
			if err := applyErr(ed.m, deleteLeaf(id)); err != nil {
				return err
			}
			ed.ids[i] = ed.ids[len(ed.ids)-1]
			ed.ids = ed.ids[:len(ed.ids)-1]
			return nil
		}
	}
	// Fall back to a relabel of the root, which always exists.
	return applyErr(ed.m, relabel(ed.m.Tree().Root.ID, pick(ed.rng, "a", "b", "c")))
}

// RandomFragment builds a small random tree of n nodes over {a, b, c},
// suitable as a graft argument for the subtree inserts.
func RandomFragment(rng *rand.Rand, n int) *tree.Unranked {
	if n < 1 {
		n = 1
	}
	return tva.RandomUnrankedTree(rng, n, []tree.Label{"a", "b", "c"})
}

// EditWeights configures the mix of a StructuralEditor. A kind with
// weight 0 never fires; kinds that cannot apply at the drawn node (e.g.
// a subtree move whose destination would be inside the moved subtree)
// are redrawn, so the realized mix tracks the weights closely instead of
// degrading to relabels the way Apply does.
type EditWeights struct {
	Relabel        int
	InsertLeaf     int // insert first child / right sibling (even split)
	DeleteLeaf     int
	InsertSubtree  int // graft a RandomFragment (even split child/sibling)
	DeleteSubtree  int
	MoveSubtree    int // relocate a whole subtree (even split child/sibling)
	MaxFragment    int // largest graft size (default 8)
	MaxDeleteRatio int // skip subtree deletes larger than size/ratio (default 4)
}

// DefaultStructuralWeights is the structural mix of the differential
// suites and experiment E-struct: half leaf edits, half subtree edits.
func DefaultStructuralWeights() EditWeights {
	return EditWeights{Relabel: 20, InsertLeaf: 20, DeleteLeaf: 10, InsertSubtree: 20, DeleteSubtree: 10, MoveSubtree: 20}
}

// Structural edit kinds, indexing StructuralEditor.Counts.
const (
	KindRelabel = iota
	KindInsertLeaf
	KindDeleteLeaf
	KindInsertSubtree
	KindDeleteSubtree
	KindMoveSubtree
	numKinds
)

// StructuralEditor draws weighted structural edits, reproducible from
// its rng. Like Editor it tracks live node IDs itself (lazily dropping
// stale ones) so per-step bookkeeping stays sublinear in the tree.
type StructuralEditor struct {
	m      TreeMutator
	rng    *rand.Rand
	w      EditWeights
	ids    []tree.NodeID
	Counts [numKinds]int // realized edits by kind
}

// NewStructuralEditor indexes the current nodes of the mutator's tree.
func NewStructuralEditor(m TreeMutator, w EditWeights, rng *rand.Rand) *StructuralEditor {
	if w.MaxFragment <= 0 {
		w.MaxFragment = 8
	}
	if w.MaxDeleteRatio <= 0 {
		w.MaxDeleteRatio = 4
	}
	ed := &StructuralEditor{m: m, rng: rng, w: w}
	for _, n := range m.Tree().Nodes() {
		ed.ids = append(ed.ids, n.ID)
	}
	return ed
}

// pickLive draws a random live node ID, compacting stale entries.
func (ed *StructuralEditor) pickLive() *tree.UNode {
	for len(ed.ids) > 0 {
		i := ed.rng.Intn(len(ed.ids))
		if n := ed.m.Tree().Node(ed.ids[i]); n != nil {
			return n
		}
		ed.ids[i] = ed.ids[len(ed.ids)-1]
		ed.ids = ed.ids[:len(ed.ids)-1]
	}
	return ed.m.Tree().Root
}

// trackSubtree records the IDs of a freshly grafted subtree.
func (ed *StructuralEditor) trackSubtree(root tree.NodeID) {
	t := ed.m.Tree()
	var rec func(n *tree.UNode)
	rec = func(n *tree.UNode) {
		ed.ids = append(ed.ids, n.ID)
		for c := n.FirstChild; c != nil; c = c.NextSib {
			rec(c)
		}
	}
	if n := t.Node(root); n != nil {
		rec(n)
	}
}

// drawKind samples an edit kind by weight.
func (ed *StructuralEditor) drawKind() int {
	w := [numKinds]int{ed.w.Relabel, ed.w.InsertLeaf, ed.w.DeleteLeaf, ed.w.InsertSubtree, ed.w.DeleteSubtree, ed.w.MoveSubtree}
	total := 0
	for _, x := range w {
		total += x
	}
	if total == 0 {
		return KindRelabel
	}
	r := ed.rng.Intn(total)
	for k, x := range w {
		if r < x {
			return k
		}
		r -= x
	}
	return KindRelabel
}

// Step performs one weighted edit; kinds that cannot apply at the drawn
// node are redrawn (bounded attempts), falling back to a root relabel.
func (ed *StructuralEditor) Step() error {
	t := ed.m.Tree()
	for attempt := 0; attempt < 16; attempt++ {
		n := ed.pickLive()
		l := pick(ed.rng, "a", "b", "c")
		switch ed.drawKind() {
		case KindRelabel:
			ed.Counts[KindRelabel]++
			return applyErr(ed.m, relabel(n.ID, l))
		case KindInsertLeaf:
			u := insertRightSibling(n.ID, l)
			if ed.rng.Intn(2) == 0 || n.Parent == nil {
				u = insertFirstChild(n.ID, l)
			}
			v, err := ed.m.Apply(u)
			if err == nil {
				ed.ids = append(ed.ids, v)
				ed.Counts[KindInsertLeaf]++
			}
			return err
		case KindDeleteLeaf:
			if !n.IsLeaf() || n.Parent == nil {
				continue
			}
			if err := applyErr(ed.m, deleteLeaf(n.ID)); err != nil {
				return err
			}
			ed.Counts[KindDeleteLeaf]++
			return nil
		case KindInsertSubtree:
			u := engine.Update{Op: engine.OpInsertSubtreeRightSibling, Node: n.ID,
				Fragment: RandomFragment(ed.rng, 1+ed.rng.Intn(ed.w.MaxFragment))}
			if ed.rng.Intn(2) == 0 || n.Parent == nil {
				u.Op = engine.OpInsertSubtreeFirstChild
			}
			v, err := ed.m.Apply(u)
			if err == nil {
				ed.trackSubtree(v)
				ed.Counts[KindInsertSubtree]++
			}
			return err
		case KindDeleteSubtree:
			if n.Parent == nil {
				continue
			}
			// Keep the document from collapsing: skip deletes of more
			// than 1/MaxDeleteRatio of the tree.
			if t.SubtreeSize(n.ID) > t.Size()/ed.w.MaxDeleteRatio {
				continue
			}
			if err := applyErr(ed.m, engine.Update{Op: engine.OpDeleteSubtree, Node: n.ID}); err != nil {
				return err
			}
			ed.Counts[KindDeleteSubtree]++
			return nil
		case KindMoveSubtree:
			if n.Parent == nil {
				continue
			}
			dest := ed.pickLive()
			if t.InSubtree(n.ID, dest.ID) {
				continue
			}
			u := engine.Update{Op: engine.OpMoveSubtreeRightSibling, Node: n.ID, Dest: dest.ID}
			if ed.rng.Intn(2) == 0 || dest.Parent == nil {
				u.Op = engine.OpMoveSubtreeFirstChild
			}
			err := applyErr(ed.m, u)
			if err == nil {
				ed.Counts[KindMoveSubtree]++
			}
			return err
		}
	}
	ed.Counts[KindRelabel]++
	return applyErr(ed.m, relabel(t.Root.ID, pick(ed.rng, "a", "b", "c")))
}

// AncestorQuery returns the standing query of experiments E1-E4 over the
// alphabet {a, b, c}: select every node x (any label) that has an
// a-labeled proper ancestor. Four automaton states.
func AncestorQuery() *tva.Unranked {
	const (
		m0 = tva.State(0) // no x in subtree, subtree root labeled a
		u0 = tva.State(1) // no x in subtree, subtree root not a
		s1 = tva.State(2) // x in subtree, no a-ancestor of x inside
		s2 = tva.State(3) // x in subtree with an a-labeled proper ancestor
	)
	x := tree.NewVarSet(0)
	a := &tva.Unranked{
		NumStates: 4,
		Alphabet:  []tree.Label{"a", "b", "c"},
		Vars:      x,
		Final:     []tva.State{s2},
		Init: []tva.InitRule{
			{Label: "a", Set: 0, State: m0},
			{Label: "b", Set: 0, State: u0},
			{Label: "c", Set: 0, State: u0},
			{Label: "a", Set: x, State: s1},
			{Label: "b", Set: x, State: s1},
			{Label: "c", Set: x, State: s1},
		},
		Delta: []tva.StepTriple{
			{From: m0, Child: m0, To: m0}, {From: m0, Child: u0, To: m0},
			{From: m0, Child: s1, To: s2}, {From: m0, Child: s2, To: s2},
			{From: u0, Child: m0, To: u0}, {From: u0, Child: u0, To: u0},
			{From: u0, Child: s1, To: s1}, {From: u0, Child: s2, To: s2},
			{From: s1, Child: m0, To: s1}, {From: s1, Child: u0, To: s1},
			{From: s2, Child: m0, To: s2}, {From: s2, Child: u0, To: s2},
		},
	}
	return a
}
