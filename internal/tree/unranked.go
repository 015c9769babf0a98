package tree

import (
	"fmt"
	"strings"
)

// UNode is a node of an unranked tree. Children are kept in a doubly linked
// sibling list so that the edit operations of Definition 7.1 are O(1) on
// the tree itself (the cost of an update lies in maintaining the balanced
// term and the circuit, not the tree).
type UNode struct {
	ID     NodeID
	Label  Label
	Parent *UNode

	FirstChild *UNode
	LastChild  *UNode
	PrevSib    *UNode
	NextSib    *UNode
}

// IsLeaf reports whether the node has no children.
func (n *UNode) IsLeaf() bool { return n.FirstChild == nil }

// Unranked is a mutable unranked Λ-tree. It owns its nodes and hands out
// stable NodeIDs; the dynamic enumeration pipeline addresses nodes through
// those IDs.
type Unranked struct {
	Root   *UNode
	nodes  map[NodeID]*UNode
	nextID NodeID
}

// NewUnranked creates a tree consisting of a single root with the given
// label.
func NewUnranked(rootLabel Label) *Unranked {
	t := &Unranked{nodes: map[NodeID]*UNode{}}
	t.Root = t.newNode(rootLabel)
	return t
}

func (t *Unranked) newNode(l Label) *UNode {
	n := &UNode{ID: t.nextID, Label: l}
	t.nextID++
	t.nodes[n.ID] = n
	return n
}

// Size returns the number of nodes.
func (t *Unranked) Size() int { return len(t.nodes) }

// Node returns the node with the given ID, or nil if it does not exist
// (e.g. it was deleted).
func (t *Unranked) Node(id NodeID) *UNode { return t.nodes[id] }

// Nodes returns all nodes in document (preorder) order.
func (t *Unranked) Nodes() []*UNode {
	out := make([]*UNode, 0, len(t.nodes))
	var walk func(n *UNode)
	walk = func(n *UNode) {
		out = append(out, n)
		for c := n.FirstChild; c != nil; c = c.NextSib {
			walk(c)
		}
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return out
}

// Height returns the height of the tree (a single node has height 0).
func (t *Unranked) Height() int {
	var h func(n *UNode) int
	h = func(n *UNode) int {
		best := -1
		for c := n.FirstChild; c != nil; c = c.NextSib {
			if ch := h(c); ch > best {
				best = ch
			}
		}
		return best + 1
	}
	if t.Root == nil {
		return -1
	}
	return h(t.Root)
}

// Relabel implements relabel(n, l): change the label of n to l.
func (t *Unranked) Relabel(id NodeID, l Label) error {
	n := t.nodes[id]
	if n == nil {
		return fmt.Errorf("tree: relabel: node n%d does not exist", id)
	}
	n.Label = l
	return nil
}

// InsertFirstChild implements insert(n, l): insert a new l-labeled node as
// the first child of n. It returns the new node.
func (t *Unranked) InsertFirstChild(id NodeID, l Label) (*UNode, error) {
	n := t.nodes[id]
	if n == nil {
		return nil, fmt.Errorf("tree: insert: node n%d does not exist", id)
	}
	v := t.newNode(l)
	v.Parent = n
	v.NextSib = n.FirstChild
	if n.FirstChild != nil {
		n.FirstChild.PrevSib = v
	} else {
		n.LastChild = v
	}
	n.FirstChild = v
	return v, nil
}

// InsertRightSibling implements insertR(n, l): insert a new l-labeled node
// as the right sibling of n. It returns the new node. The root has no
// sibling position (the result would not be a tree), so this is an error
// for the root.
func (t *Unranked) InsertRightSibling(id NodeID, l Label) (*UNode, error) {
	n := t.nodes[id]
	if n == nil {
		return nil, fmt.Errorf("tree: insertR: node n%d does not exist", id)
	}
	if n.Parent == nil {
		return nil, fmt.Errorf("tree: insertR: node n%d is the root", id)
	}
	v := t.newNode(l)
	v.Parent = n.Parent
	v.PrevSib = n
	v.NextSib = n.NextSib
	if n.NextSib != nil {
		n.NextSib.PrevSib = v
	} else {
		n.Parent.LastChild = v
	}
	n.NextSib = v
	return v, nil
}

// Delete implements delete(n): remove the leaf n from the tree. Deleting
// an internal node or the root is an error (the tree must stay a tree and
// stay nonempty).
func (t *Unranked) Delete(id NodeID) error {
	n := t.nodes[id]
	if n == nil {
		return fmt.Errorf("tree: delete: node n%d does not exist", id)
	}
	if !n.IsLeaf() {
		return fmt.Errorf("tree: delete: node n%d is not a leaf", id)
	}
	if n.Parent == nil {
		return fmt.Errorf("tree: delete: node n%d is the root", id)
	}
	t.detach(n)
	delete(t.nodes, id)
	return nil
}

// detach unlinks n from its parent and siblings, leaving the subtree's
// internal pointers intact (the detached fragment stays walkable).
func (t *Unranked) detach(n *UNode) {
	p := n.Parent
	if n.PrevSib != nil {
		n.PrevSib.NextSib = n.NextSib
	} else {
		p.FirstChild = n.NextSib
	}
	if n.NextSib != nil {
		n.NextSib.PrevSib = n.PrevSib
	} else {
		p.LastChild = n.PrevSib
	}
	n.Parent, n.PrevSib, n.NextSib = nil, nil, nil
}

// InSubtree reports whether node v lies in the subtree rooted at n
// (inclusive), by walking v's parent chain. O(depth(v)).
func (t *Unranked) InSubtree(n, v NodeID) bool {
	for x := t.nodes[v]; x != nil; x = x.Parent {
		if x.ID == n {
			return true
		}
	}
	return false
}

// SubtreeSize returns the number of nodes in the subtree rooted at id, or
// 0 if the node does not exist.
func (t *Unranked) SubtreeSize(id NodeID) int {
	n := t.nodes[id]
	if n == nil {
		return 0
	}
	var rec func(x *UNode) int
	rec = func(x *UNode) int {
		s := 1
		for c := x.FirstChild; c != nil; c = c.NextSib {
			s += rec(c)
		}
		return s
	}
	return rec(n)
}

// DeleteSubtree implements the structural edit deleteSub(n): remove the
// whole subtree rooted at n. The root is not deletable (the tree must
// stay nonempty). The detached fragment is returned with its internal
// parent/child/sibling links intact — callers that maintain per-node
// side structure (the forest algebra term's leaf map) walk it to release
// their entries — but its nodes are no longer addressable through the
// tree. O(|subtree|).
func (t *Unranked) DeleteSubtree(id NodeID) (*UNode, int, error) {
	n := t.nodes[id]
	if n == nil {
		return nil, 0, fmt.Errorf("tree: deleteSub: node n%d does not exist", id)
	}
	if n.Parent == nil {
		return nil, 0, fmt.Errorf("tree: deleteSub: node n%d is the root", id)
	}
	t.detach(n)
	count := 0
	var purge func(x *UNode)
	purge = func(x *UNode) {
		delete(t.nodes, x.ID)
		count++
		for c := x.FirstChild; c != nil; c = c.NextSib {
			purge(c)
		}
	}
	purge(n)
	return n, count, nil
}

// moveChecks validates a subtree move: both nodes exist, the moved node
// is not the root, and the destination is not inside the moved subtree
// (which would disconnect the tree). O(depth(dest)).
func (t *Unranked) moveChecks(op string, id, dest NodeID) (*UNode, *UNode, error) {
	n := t.nodes[id]
	if n == nil {
		return nil, nil, fmt.Errorf("tree: %s: node n%d does not exist", op, id)
	}
	d := t.nodes[dest]
	if d == nil {
		return nil, nil, fmt.Errorf("tree: %s: destination n%d does not exist", op, dest)
	}
	if n.Parent == nil {
		return nil, nil, fmt.Errorf("tree: %s: node n%d is the root", op, id)
	}
	if t.InSubtree(id, dest) {
		return nil, nil, fmt.Errorf("tree: %s: destination n%d is inside the moved subtree of n%d", op, dest, id)
	}
	return n, d, nil
}

// MoveSubtreeFirstChild implements move(n, dest): detach the subtree
// rooted at n and reattach it as the FIRST CHILD of dest. Node IDs and
// the subtree's internal structure are preserved. O(depth) validation
// plus O(1) pointer surgery.
func (t *Unranked) MoveSubtreeFirstChild(id, dest NodeID) error {
	n, d, err := t.moveChecks("move", id, dest)
	if err != nil {
		return err
	}
	t.detach(n)
	n.Parent = d
	n.NextSib = d.FirstChild
	if d.FirstChild != nil {
		d.FirstChild.PrevSib = n
	} else {
		d.LastChild = n
	}
	d.FirstChild = n
	return nil
}

// MoveSubtreeRightSibling implements moveR(n, dest): detach the subtree
// rooted at n and reattach it as the RIGHT SIBLING of dest. dest must not
// be the root (the result must stay a tree). O(depth) validation plus
// O(1) pointer surgery.
func (t *Unranked) MoveSubtreeRightSibling(id, dest NodeID) error {
	n, d, err := t.moveChecks("moveR", id, dest)
	if err != nil {
		return err
	}
	if d.Parent == nil {
		return fmt.Errorf("tree: moveR: destination n%d is the root", dest)
	}
	t.detach(n)
	n.Parent = d.Parent
	n.PrevSib = d
	n.NextSib = d.NextSib
	if d.NextSib != nil {
		d.NextSib.PrevSib = n
	} else {
		d.Parent.LastChild = n
	}
	d.NextSib = n
	return nil
}

// graft deep-copies the fragment rooted at src (from another tree) into
// this tree under fresh node IDs, returning the copy's root. O(|fragment|).
func (t *Unranked) graft(src *UNode, parent *UNode) *UNode {
	n := t.newNode(src.Label)
	n.Parent = parent
	var prev *UNode
	for c := src.FirstChild; c != nil; c = c.NextSib {
		cn := t.graft(c, n)
		if prev == nil {
			n.FirstChild = cn
		} else {
			prev.NextSib = cn
			cn.PrevSib = prev
		}
		prev = cn
	}
	n.LastChild = prev
	return n
}

// GraftFirstChild implements the structural edit insertSub(n, F): a copy
// of the fragment tree F (under fresh IDs — the fragment itself is not
// consumed) becomes the first child of n. Returns the copy's root.
func (t *Unranked) GraftFirstChild(id NodeID, frag *Unranked) (*UNode, error) {
	n := t.nodes[id]
	if n == nil {
		return nil, fmt.Errorf("tree: insertSub: node n%d does not exist", id)
	}
	if frag == nil || frag.Root == nil {
		return nil, fmt.Errorf("tree: insertSub: empty fragment")
	}
	v := t.graft(frag.Root, n)
	v.NextSib = n.FirstChild
	if n.FirstChild != nil {
		n.FirstChild.PrevSib = v
	} else {
		n.LastChild = v
	}
	n.FirstChild = v
	return v, nil
}

// GraftRightSibling implements insertSubR(n, F): a copy of the fragment
// tree F (under fresh IDs) becomes the right sibling of n. Returns the
// copy's root.
func (t *Unranked) GraftRightSibling(id NodeID, frag *Unranked) (*UNode, error) {
	n := t.nodes[id]
	if n == nil {
		return nil, fmt.Errorf("tree: insertSubR: node n%d does not exist", id)
	}
	if n.Parent == nil {
		return nil, fmt.Errorf("tree: insertSubR: node n%d is the root", id)
	}
	if frag == nil || frag.Root == nil {
		return nil, fmt.Errorf("tree: insertSubR: empty fragment")
	}
	v := t.graft(frag.Root, n.Parent)
	v.PrevSib = n
	v.NextSib = n.NextSib
	if n.NextSib != nil {
		n.NextSib.PrevSib = v
	} else {
		n.Parent.LastChild = v
	}
	n.NextSib = v
	return v, nil
}

// String renders the tree as an S-expression, e.g. "(a (b) (c (d)))".
func (t *Unranked) String() string {
	var b strings.Builder
	var walk func(n *UNode)
	walk = func(n *UNode) {
		b.WriteByte('(')
		b.WriteString(string(n.Label))
		for c := n.FirstChild; c != nil; c = c.NextSib {
			b.WriteByte(' ')
			walk(c)
		}
		b.WriteByte(')')
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return b.String()
}

// ParseUnranked parses the S-expression format produced by String.
// Labels are runs of characters other than '(', ')' and whitespace.
func ParseUnranked(s string) (*Unranked, error) {
	p := &sexpParser{src: s}
	p.skipSpace()
	root, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("tree: parse: trailing input at offset %d", p.pos)
	}
	t := &Unranked{nodes: map[NodeID]*UNode{}}
	t.Root = t.adopt(root, nil)
	return t, nil
}

type sexpNode struct {
	label    Label
	children []*sexpNode
}

func (t *Unranked) adopt(s *sexpNode, parent *UNode) *UNode {
	n := t.newNode(s.label)
	n.Parent = parent
	var prev *UNode
	for _, c := range s.children {
		cn := t.adopt(c, n)
		if prev == nil {
			n.FirstChild = cn
		} else {
			prev.NextSib = cn
			cn.PrevSib = prev
		}
		prev = cn
	}
	n.LastChild = prev
	return n
}

type sexpParser struct {
	src string
	pos int
}

func (p *sexpParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *sexpParser) parseNode() (*sexpNode, error) {
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, fmt.Errorf("tree: parse: expected '(' at offset %d", p.pos)
	}
	p.pos++
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && !strings.ContainsRune("() \t\n\r", rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("tree: parse: expected label at offset %d", p.pos)
	}
	n := &sexpNode{label: Label(p.src[start:p.pos])}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("tree: parse: unexpected end of input")
		}
		if p.src[p.pos] == ')' {
			p.pos++
			return n, nil
		}
		c, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		n.children = append(n.children, c)
	}
}

// Clone returns a deep copy of the tree preserving node IDs.
func (t *Unranked) Clone() *Unranked {
	c := &Unranked{nodes: map[NodeID]*UNode{}, nextID: t.nextID}
	var walk func(n *UNode, parent *UNode) *UNode
	walk = func(n *UNode, parent *UNode) *UNode {
		cn := &UNode{ID: n.ID, Label: n.Label, Parent: parent}
		c.nodes[cn.ID] = cn
		var prev *UNode
		for ch := n.FirstChild; ch != nil; ch = ch.NextSib {
			cc := walk(ch, cn)
			if prev == nil {
				cn.FirstChild = cc
			} else {
				prev.NextSib = cc
				cc.PrevSib = prev
			}
			prev = cc
		}
		cn.LastChild = prev
		return cn
	}
	if t.Root != nil {
		c.Root = walk(t.Root, nil)
	}
	return c
}
