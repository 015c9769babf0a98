// Package circuit implements the set circuits of Section 3: complete
// structured DNNFs whose gates capture sets of assignments, organized in
// boxes along a v-tree that mirrors the input binary tree. The central
// entry point is Builder, which implements the circuit construction of
// Lemma 3.7 (in the refined form of Appendix B where ⊤- and ⊥-gates are
// never used as inputs to other gates).
//
// The box layout is what the enumeration algorithms of Sections 4-6
// exploit: every ∪-gate has, as inputs, var- or ×-gates of its own box and
// ∪-gates of the two child boxes; every ×-gate has exactly one ∪-gate
// input in the left child box and one in the right child box. Gates are
// addressed by (box, local index), and the ∪→∪ wires to each child box are
// materialized as boolean matrices so that the ∪-reachability relations
// R(B′, B) of Section 5 are compositions of per-box matrices.
package circuit

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/tree"
)

// GammaKind classifies the gate γ(n, q) associated with a tree node n and
// automaton state q: per Definition 3.3 it is a ∪-gate, ⊤-gate or ⊥-gate.
type GammaKind uint8

// The three possible kinds of γ(n, q).
const (
	GammaBottom GammaKind = iota // no run reaches q on this subtree
	GammaTop                     // q reached exactly under the empty valuation
	GammaUnion                   // q reached under nonempty valuations: a ∪-gate
)

// VarGate is a variable gate of a leaf box. It captures the single
// assignment {⟨Z:n⟩ | Z ∈ Set}, where n is the node of the box holding
// the gate (Box.Node): the node is a property of the box header, not of
// the gate, which is what lets every leaf box of one label share one
// set of gates. Within one box the Set values are distinct, which makes
// Svar injective as Definition 3.1 requires.
type VarGate struct {
	Set tree.VarSet
}

// TimesGate is a ×-gate. Its inputs are the ∪-gate with local index Left
// in the left child box and the ∪-gate with local index Right in the right
// child box (Definition 3.4 forces exactly this shape).
type TimesGate struct {
	Left  int32
	Right int32
}

// UnionGate is a ∪-gate. Its inputs are var- or ×-gates of the same box,
// or ∪-gates of a child box (the aliasing case of the Lemma 3.7
// construction, where a ⊤ sibling makes the ×-gate degenerate to the
// other child's ∪-gate). The four input lists are consecutive runs of
// the box's flat input array, delimited by these offsets; read them
// through Gates.UnionVars, UnionTimes, UnionLeft and UnionRight.
type UnionGate struct {
	vars, times, left, right, end int32
}

// UnionInputs spells out one ∪-gate's input lists: the form Assemble
// takes gates in.
type UnionInputs struct {
	Vars  []int32 // local var-gate inputs (leaf boxes only)
	Times []int32 // local ×-gate inputs (inner boxes only)
	Left  []int32 // ∪-gate inputs in the left child box
	Right []int32 // ∪-gate inputs in the right child box
}

// Box is the set of gates mapped to one v-tree node by the structuring
// function σ. The tree of boxes is isomorphic to the input binary tree.
//
// A box is a small per-node header — children, node, label — over its
// gate data (Gates, embedded so that b.Unions, b.GammaKind and the
// other gate fields read directly). The gates of a leaf depend on its
// label only, so every leaf box of one (program, label) points at the
// program's shared template; an inner box owns its gates, laid out in
// the same allocation as its header plus one slab.
//
// Boxes are immutable once the Builder returns them: a box never changes
// after construction, and the update machinery replaces boxes along the
// hollowing trunk with fresh ones instead of editing them in place. This
// is what makes a box (plus its enumerate-layer index) a frozen unit that
// any number of concurrent readers and engine snapshots can share. For
// the same reason boxes carry no parent pointers: a parent link would
// have to be rewritten when a new parent is built over a shared child.
type Box struct {
	Left  *Box
	Right *Box

	// Node is the input-tree node this box was built for; the var gates
	// of a leaf box capture assignments to it.
	Node tree.NodeID
	// Label is the input-tree label the box was built from (kept for
	// inspection and debugging). Under signature-pruned repair a reused
	// box may carry the label of an EARLIER, gate-equivalent build — the
	// automaton does not distinguish the two labels, so every gate, wire
	// and γ entry is identical; only this field can lag.
	Label tree.Label

	*Gates
}

// Gates is the gate data of a box: everything but the node, the label
// and the children. It is immutable and may be shared by any number of
// boxes (every leaf box of a label shares its program's template), so
// none of its slices may ever be written after construction.
type Gates struct {
	Vars   []VarGate
	Times  []TimesGate
	Unions []UnionGate

	// GammaKind[q] / GammaIdx[q] give γ(node, q) for every automaton
	// state q: its kind and, for ∪-gates, the local ∪-gate index.
	GammaKind []GammaKind
	GammaIdx  []int32

	// WLeft and WRight are the ∪→∪ wire relations to the child boxes:
	// WLeft has one row per ∪-gate of Left and one column per ∪-gate of
	// this box; entry (i, j) is set iff left ∪-gate i is an input of this
	// box's ∪-gate j. They realize R(child, B) for the enumeration
	// algorithms. Zero for leaf boxes.
	WLeft  bitset.Matrix
	WRight bitset.Matrix

	// inputs holds the ∪-gates' input lists (delimited by the UnionGate
	// offsets) followed by the reverse wires; outs[k]..outs[k+1] delimit
	// the reverse wires of var gate k, then of ×-gate k-len(Vars) (see
	// VarOut and TimesOut).
	inputs []int32
	outs   []int32

	// Sig is the structural signature of the gates (γ vectors, var
	// sets, ×-gates, ∪-gate wiring — NOT the label, node or children;
	// see computeSig). Boxes with equal signatures over
	// pointer-identical children are interchangeable, which is what the
	// dynamic engine's signature-pruned repair exploits.
	Sig uint64
}

// UnionVars returns the local var-gate inputs of ∪-gate u.
func (g *Gates) UnionVars(u int) []int32 {
	x := &g.Unions[u]
	return g.inputs[x.vars:x.times:x.times]
}

// UnionTimes returns the local ×-gate inputs of ∪-gate u.
func (g *Gates) UnionTimes(u int) []int32 {
	x := &g.Unions[u]
	return g.inputs[x.times:x.left:x.left]
}

// UnionLeft returns the left-child ∪-gate inputs of ∪-gate u.
func (g *Gates) UnionLeft(u int) []int32 {
	x := &g.Unions[u]
	return g.inputs[x.left:x.right:x.right]
}

// UnionRight returns the right-child ∪-gate inputs of ∪-gate u.
func (g *Gates) UnionRight(u int) []int32 {
	x := &g.Unions[u]
	return g.inputs[x.right:x.end:x.end]
}

// HasLocal reports whether ∪-gate u has a var- or ×-gate input: whether
// it is a ↓-gate candidate of Section 5.
func (g *Gates) HasLocal(u int) bool {
	x := &g.Unions[u]
	return x.vars < x.left
}

// VarOut returns the local ∪-gates that have var gate v as an input:
// the reverse wires used when computing the provenance of ↓-gates in
// Algorithm 2.
func (g *Gates) VarOut(v int) []int32 {
	return g.inputs[g.outs[v]:g.outs[v+1]:g.outs[v+1]]
}

// TimesOut returns the local ∪-gates that have ×-gate t as an input.
func (g *Gates) TimesOut(t int) []int32 {
	return g.VarOut(len(g.Vars) + t)
}

// IsLeaf reports whether the box is a leaf of the tree of boxes.
func (b *Box) IsLeaf() bool { return b.Left == nil }

// Circuit is an assignment circuit: a complete structured DNNF organized
// as a tree of boxes, together with the γ mapping stored inside each box.
type Circuit struct {
	Root *Box
}

// Width returns the width of the circuit: the maximum number of ∪-gates
// in a box (Definition 3.6).
func (c *Circuit) Width() int {
	w := 0
	c.Walk(func(b *Box) {
		if len(b.Unions) > w {
			w = len(b.Unions)
		}
	})
	return w
}

// NumBoxes returns the number of boxes.
func (c *Circuit) NumBoxes() int {
	n := 0
	c.Walk(func(*Box) { n++ })
	return n
}

// CountGates returns the total numbers of (∪, ×, var) gates.
func (c *Circuit) CountGates() (unions, times, vars int) {
	c.Walk(func(b *Box) {
		unions += len(b.Unions)
		times += len(b.Times)
		vars += len(b.Vars)
	})
	return
}

// Walk visits every box bottom-up (children before parents).
func (c *Circuit) Walk(f func(*Box)) {
	var rec func(b *Box)
	rec = func(b *Box) {
		if b == nil {
			return
		}
		rec(b.Left)
		rec(b.Right)
		f(b)
	}
	rec(c.Root)
}

// Validate checks the structural rules of set circuits and of complete
// structured DNNFs (Definitions 3.1 and 3.4) on the whole circuit:
// fan-ins, wire targets, var gates only in leaf boxes, and Svar
// injectivity.
func (c *Circuit) Validate() error {
	var rec func(b *Box) error
	rec = func(b *Box) error {
		if b == nil {
			return nil
		}
		if (b.Left == nil) != (b.Right == nil) {
			return fmt.Errorf("circuit: box for n%d has exactly one child", b.Node)
		}
		if b.IsLeaf() {
			if len(b.Times) != 0 {
				return fmt.Errorf("circuit: leaf box n%d contains ×-gates", b.Node)
			}
			seen := map[tree.VarSet]bool{}
			for _, v := range b.Vars {
				if v.Set.Empty() {
					return fmt.Errorf("circuit: var gate with empty set in box n%d", b.Node)
				}
				if seen[v.Set] {
					return fmt.Errorf("circuit: duplicate var gate %v in box n%d (Svar not injective)", v.Set, b.Node)
				}
				seen[v.Set] = true
			}
		} else if len(b.Vars) != 0 {
			return fmt.Errorf("circuit: inner box n%d contains var gates", b.Node)
		}
		for ti, tg := range b.Times {
			if b.IsLeaf() {
				return fmt.Errorf("circuit: ×-gate in leaf box n%d", b.Node)
			}
			if int(tg.Left) >= len(b.Left.Unions) || tg.Left < 0 {
				return fmt.Errorf("circuit: ×-gate %d in box n%d has bad left input", ti, b.Node)
			}
			if int(tg.Right) >= len(b.Right.Unions) || tg.Right < 0 {
				return fmt.Errorf("circuit: ×-gate %d in box n%d has bad right input", ti, b.Node)
			}
		}
		for ui := range b.Unions {
			vars, times, lefts, rights := b.UnionVars(ui), b.UnionTimes(ui), b.UnionLeft(ui), b.UnionRight(ui)
			if len(vars)+len(times)+len(lefts)+len(rights) == 0 {
				return fmt.Errorf("circuit: ∪-gate %d in box n%d has no inputs", ui, b.Node)
			}
			for _, v := range vars {
				if int(v) >= len(b.Vars) || v < 0 {
					return fmt.Errorf("circuit: ∪-gate %d in box n%d has bad var input", ui, b.Node)
				}
			}
			for _, tg := range times {
				if int(tg) >= len(b.Times) || tg < 0 {
					return fmt.Errorf("circuit: ∪-gate %d in box n%d has bad ×-input", ui, b.Node)
				}
			}
			if b.IsLeaf() && (len(lefts) > 0 || len(rights) > 0) {
				return fmt.Errorf("circuit: leaf ∪-gate %d in box n%d has child inputs", ui, b.Node)
			}
			if !b.IsLeaf() {
				for _, l := range lefts {
					if int(l) >= len(b.Left.Unions) || l < 0 {
						return fmt.Errorf("circuit: ∪-gate %d in box n%d has bad left ∪-input", ui, b.Node)
					}
				}
				for _, r := range rights {
					if int(r) >= len(b.Right.Unions) || r < 0 {
						return fmt.Errorf("circuit: ∪-gate %d in box n%d has bad right ∪-input", ui, b.Node)
					}
				}
			}
		}
		// W matrices must reflect the declared union inputs.
		if !b.IsLeaf() {
			wl := bitset.NewMatrix(len(b.Left.Unions), len(b.Unions))
			wr := bitset.NewMatrix(len(b.Right.Unions), len(b.Unions))
			for ui := range b.Unions {
				wl.SetCol(b.UnionLeft(ui), ui)
				wr.SetCol(b.UnionRight(ui), ui)
			}
			if !wl.Equal(b.WLeft) || !wr.Equal(b.WRight) {
				return fmt.Errorf("circuit: box n%d wire matrices out of sync", b.Node)
			}
		}
		if err := rec(b.Left); err != nil {
			return err
		}
		return rec(b.Right)
	}
	return rec(c.Root)
}
