package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/paths"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

var alphabet = []tree.Label{"a", "b", "c"}

// queryByName builds the stepwise TVA behind a registration name.
func queryByName(name string) (*tva.Unranked, error) {
	switch name {
	case "select:b":
		return tva.SelectLabel(alphabet, "b", 0), nil
	case "select:c":
		return tva.SelectLabel(alphabet, "c", 0), nil
	case "ancestor":
		return workload.AncestorQuery(), nil
	case "path://a/b":
		return paths.MustCompile("//a/b", alphabet, 0), nil
	case "path://a//b":
		return paths.MustCompile("//a//b", alphabet, 0), nil
	}
	return nil, fmt.Errorf("unknown query %q", name)
}

// editMix weighs the edit kinds a workload draws; see spec.mix.
type editMix struct {
	relabel, insertLeaf, deleteLeaf, insertFrag, deleteSub, move int
}

// spec describes one workload: the document, the registrations, and
// how one round of its closed-loop script is laid out.
type spec struct {
	name  string
	nodes int
	// regs are the registrations in order; duplicates share a pipeline.
	regs []string
	// subscribed and read index regs: the registration whose delta the
	// client waits for, and the one pages and drains read.
	subscribed, read int
	setupPasses      int
	mix              editMix
	// One round: edits single-edit batches, pages Page(offset, 100)
	// calls and drains full Results() drains, interleaved evenly.
	edits, pages, drains int
	// checkRound is the round after which the mid-run oracle
	// checkpoint runs and the heap is read. It is a fixed point of the
	// script, so the heap metric sees the same edits on every commit
	// however fast the commit runs (the engine's heap grows with the
	// number of edits). A run lasts at least this many rounds.
	checkRound int
}

const pageLimit = 100

// specFor returns the named workload at the given size scale (1 is the
// benchmark; the smoke test shrinks documents and rounds).
func specFor(name string, scale float64) (spec, error) {
	sz := func(n int) int { return max(1, int(float64(n)*scale)) }
	switch name {
	case "standing":
		return spec{
			name:  name,
			nodes: sz(20000),
			regs:  []string{"select:b", "select:b", "ancestor", "ancestor", "path://a/b", "select:c"},
			// Pages and drains read the larger ancestor answer set.
			subscribed: 0, read: 2,
			setupPasses: 10,
			mix:         editMix{relabel: 40, insertLeaf: 15, deleteLeaf: 15, insertFrag: 10, deleteSub: 10, move: 10},
			edits:       sz(2000), pages: sz(400), drains: sz(8),
			checkRound: sz(8),
		}, nil
	case "ambiguous":
		return spec{
			name:        name,
			nodes:       sz(2000),
			regs:        []string{"path://a//b"},
			setupPasses: 50,
			mix:         editMix{relabel: 1, insertLeaf: 1, deleteLeaf: 1},
			edits:       sz(200), pages: sz(200), drains: sz(10),
			checkRound: sz(25),
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want standing or ambiguous)", name)
}

// opKind is the operation type of one script step; each latency metric
// times exactly one kind.
type opKind uint8

const (
	opEdit opKind = iota
	opPage
	opDrain
)

// op is one pre-generated step of a script. Page offsets are drawn as
// a fraction of the answer count at execution time.
type op struct {
	kind opKind
	upd  engine.Update
	// want is the node ID the mirror assigned to an inserted node (the
	// engine must assign the same), tree.InvalidNode otherwise.
	want tree.NodeID
	frac float64
}

// documentSeed seeds every workload's document; --seed seeds the
// script (edits and page offsets). The shape of a random recursive tree
// varies a lot from seed to seed (the depth profile, which sets how many
// runs an ambiguous answer has, and the answer counts), and in probes
// that moved the ambiguous workload's update and page medians by 18%
// across seeds against 2-4% across runs of one seed.
const documentSeed = 1

// newDocument generates a workload's document: a random recursive tree
// of n nodes over {a, b, c} whose root is labelled a. Scripts never
// relabel the root: one relabel near the root of a random recursive
// tree would swing the ancestor and //a//b answer sets by thousands. So
// ancestor selects every other node and //a//b every b node, about a
// third of the document.
func newDocument(n int) (*tree.Unranked, error) {
	doc := tva.RandomUnrankedTree(rand.New(rand.NewSource(documentSeed)), n, alphabet)
	return doc, doc.Relabel(doc.Root.ID, "a")
}

// mirror is the script generator's copy of the document: every drawn
// edit is applied to it at once, so later draws see the edited tree and
// the oracle can rebuild from it. It tracks live node IDs for O(1)
// random picks.
type mirror struct {
	t    *tree.Unranked
	rng  *rand.Rand
	mix  editMix
	live []tree.NodeID
	pos  map[tree.NodeID]int
	// cut holds the sizes of deleted subtrees not yet matched by a
	// fragment insert, so grafts and subtree deletes move the same
	// number of nodes and the document size stays flat.
	cut []int
	// inserted queues the leaves the script inserted, oldest first: leaf
	// deletes remove them, so the document keeps its shape.
	inserted []tree.NodeID
	// owed is the relabel that undoes the last one's change to the label
	// counts (from owed[0] to owed[1]), due next, so relabels come in
	// pairs that keep every label's count, and the answer counts, flat.
	owed *[2]tree.Label
}

func newMirror(t *tree.Unranked, sp spec, rng *rand.Rand) *mirror {
	m := &mirror{t: t, rng: rng, mix: sp.mix, pos: map[tree.NodeID]int{}}
	for _, n := range t.Nodes() {
		m.add(n.ID)
	}
	return m
}

func (m *mirror) add(id tree.NodeID) {
	m.pos[id] = len(m.live)
	m.live = append(m.live, id)
}

func (m *mirror) remove(id tree.NodeID) {
	i := m.pos[id]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.pos[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.pos, id)
}

func (m *mirror) pick() *tree.UNode { return m.t.Node(m.live[m.rng.Intn(len(m.live))]) }

func (m *mirror) label() tree.Label { return alphabet[m.rng.Intn(len(alphabet))] }

// relabel draws a new label for a node labelled l: always a different
// one, so no relabel is a no-op.
func (m *mirror) relabel(l tree.Label) tree.Label {
	for {
		if x := m.label(); x != l {
			return x
		}
	}
}

// pickWhere draws live nodes until ok accepts one (nil after 64 misses).
func (m *mirror) pickWhere(ok func(*tree.UNode) bool) *tree.UNode {
	for range 64 {
		if n := m.pick(); ok(n) {
			return n
		}
	}
	return nil
}

func isNonRootLeaf(n *tree.UNode) bool { return n.Parent != nil && n.IsLeaf() }

// subtreeIDs returns the IDs under n, or nil when there are more than
// limit of them (bounded walk: never O(|T|)).
func subtreeIDs(n *tree.UNode, limit int) []tree.NodeID {
	var out []tree.NodeID
	var walk func(x *tree.UNode) bool
	walk = func(x *tree.UNode) bool {
		if len(out) == limit {
			return false
		}
		out = append(out, x.ID)
		for c := x.FirstChild; c != nil; c = c.NextSib {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	if !walk(n) {
		return nil
	}
	return out
}

// fragmentSize draws a graft size: a pending cut size when there is
// one, else P(k) ∝ 1/(k(k+1)) on 1..8, the subtree-size law of a random
// recursive tree cut at 8, which is what subtree deletes remove.
func (m *mirror) fragmentSize() int {
	if len(m.cut) > 0 {
		k := m.cut[0]
		m.cut = m.cut[1:]
		return k
	}
	u := m.rng.Float64() * (8.0 / 9.0)
	for k := 1; k < 8; k++ {
		u -= 1 / float64(k*(k+1))
		if u < 0 {
			return k
		}
	}
	return 8
}

// edit draws one edit by the mix, applies it to the mirror and returns
// it. Kinds that find no valid target fall back to a relabel.
func (m *mirror) edit() (op, error) {
	w := m.mix
	r := m.rng.Intn(w.relabel + w.insertLeaf + w.deleteLeaf + w.insertFrag + w.deleteSub + w.move)
	o := op{kind: opEdit, want: tree.InvalidNode}
	switch {
	case r < w.relabel:
	case r < w.relabel+w.insertLeaf:
		n, l := m.pick(), m.label()
		var v *tree.UNode
		var err error
		if n.Parent == nil || m.rng.Intn(2) == 0 {
			o.upd = engine.Update{Op: engine.OpInsertFirstChild, Node: n.ID, Label: l}
			v, err = m.t.InsertFirstChild(n.ID, l)
		} else {
			o.upd = engine.Update{Op: engine.OpInsertRightSibling, Node: n.ID, Label: l}
			v, err = m.t.InsertRightSibling(n.ID, l)
		}
		if err != nil {
			return o, err
		}
		m.add(v.ID)
		m.inserted = append(m.inserted, v.ID)
		o.want = v.ID
		return o, nil
	case r < w.relabel+w.insertLeaf+w.deleteLeaf:
		if n := m.oldestInsertedLeaf(); n != nil {
			o.upd = engine.Update{Op: engine.OpDelete, Node: n.ID}
			m.remove(n.ID)
			return o, m.t.Delete(n.ID)
		}
		if n := m.pickWhere(isNonRootLeaf); n != nil {
			o.upd = engine.Update{Op: engine.OpDelete, Node: n.ID}
			m.remove(n.ID)
			return o, m.t.Delete(n.ID)
		}
	case r < w.relabel+w.insertLeaf+w.deleteLeaf+w.insertFrag:
		n := m.pick()
		frag := workload.RandomFragment(m.rng, m.fragmentSize())
		var v *tree.UNode
		var err error
		if n.Parent == nil || m.rng.Intn(2) == 0 {
			o.upd = engine.Update{Op: engine.OpInsertSubtreeFirstChild, Node: n.ID, Fragment: frag}
			v, err = m.t.GraftFirstChild(n.ID, frag)
		} else {
			o.upd = engine.Update{Op: engine.OpInsertSubtreeRightSibling, Node: n.ID, Fragment: frag}
			v, err = m.t.GraftRightSibling(n.ID, frag)
		}
		if err != nil {
			return o, err
		}
		for _, id := range subtreeIDs(v, frag.Size()) {
			m.add(id)
		}
		o.want = v.ID
		return o, nil
	case r < w.relabel+w.insertLeaf+w.deleteLeaf+w.insertFrag+w.deleteSub:
		var ids []tree.NodeID
		n := m.pickWhere(func(n *tree.UNode) bool {
			if n.Parent == nil {
				return false
			}
			ids = subtreeIDs(n, 8)
			return ids != nil
		})
		if n != nil {
			o.upd = engine.Update{Op: engine.OpDeleteSubtree, Node: n.ID}
			for _, id := range ids {
				m.remove(id)
			}
			m.cut = append(m.cut, len(ids))
			_, _, err := m.t.DeleteSubtree(n.ID)
			return o, err
		}
	default:
		n := m.pickWhere(func(n *tree.UNode) bool { return n.Parent != nil })
		if n != nil {
			dest := m.pickWhere(func(d *tree.UNode) bool { return !m.t.InSubtree(n.ID, d.ID) })
			if dest != nil {
				if dest.Parent == nil || m.rng.Intn(2) == 0 {
					o.upd = engine.Update{Op: engine.OpMoveSubtreeFirstChild, Node: n.ID, Dest: dest.ID}
					return o, m.t.MoveSubtreeFirstChild(n.ID, dest.ID)
				}
				o.upd = engine.Update{Op: engine.OpMoveSubtreeRightSibling, Node: n.ID, Dest: dest.ID}
				return o, m.t.MoveSubtreeRightSibling(n.ID, dest.ID)
			}
		}
	}
	return m.relabelEdit(o)
}

// relabelEdit relabels a non-root node: the owed relabel if one is due,
// else a random node to a different label, whose undoing becomes owed.
func (m *mirror) relabelEdit(o op) (op, error) {
	var n *tree.UNode
	var l tree.Label
	if m.owed != nil {
		from := m.owed[0]
		n, l = m.pickWhere(func(n *tree.UNode) bool { return n.Parent != nil && n.Label == from }), m.owed[1]
		m.owed = nil
	}
	if n == nil {
		n = m.pickWhere(func(n *tree.UNode) bool { return n.Parent != nil })
		if n == nil {
			return o, fmt.Errorf("no node to relabel besides the root")
		}
		l = m.relabel(n.Label)
		m.owed = &[2]tree.Label{l, n.Label}
	}
	o.upd = engine.Update{Op: engine.OpRelabel, Node: n.ID, Label: l}
	return o, m.t.Relabel(n.ID, l)
}

// oldestInsertedLeaf pops the oldest script-inserted node that is still
// a leaf, or nil.
func (m *mirror) oldestInsertedLeaf() *tree.UNode {
	for len(m.inserted) > 0 {
		n := m.t.Node(m.inserted[0])
		m.inserted = m.inserted[1:]
		if n != nil && isNonRootLeaf(n) {
			return n
		}
	}
	return nil
}

// round generates the next round of the workload's script, applying its
// edits to the mirror: sp.edits single-edit batches, sp.pages
// Page(offset, 100) calls and sp.drains full drains, interleaved evenly
// so that every operation type samples the whole run. Generation
// happens outside every timed interval.
func (m *mirror) round(sp spec) ([]op, error) {
	total := [3]int{opEdit: sp.edits, opPage: sp.pages, opDrain: sp.drains}
	n := sp.edits + sp.pages + sp.drains
	var done [3]int
	out := make([]op, 0, n)
	for i := range n {
		// The kind furthest behind its even share of the first i+1 steps.
		k, behind := opEdit, math.Inf(-1)
		for kind := range total {
			if b := float64((i+1)*total[kind])/float64(n) - float64(done[kind]); done[kind] < total[kind] && b > behind {
				k, behind = opKind(kind), b
			}
		}
		done[k]++
		switch k {
		case opEdit:
			o, err := m.edit()
			if err != nil {
				return nil, err
			}
			out = append(out, o)
		case opPage:
			out = append(out, op{kind: opPage, frac: m.rng.Float64()})
		case opDrain:
			out = append(out, op{kind: opDrain})
		}
	}
	return out, nil
}
