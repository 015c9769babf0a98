package circuit

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/slab"
	"repro/internal/tree"
	"repro/internal/tva"
)

// Builder constructs assignment circuits for a fixed homogenized binary
// TVA, one box per tree node, exactly as in the proof of Lemma 3.7
// (Appendix B): ⊤- and ⊥-gates are represented implicitly in the γ arrays
// and never wired into the circuit; a ×-gate whose left (right) input
// would be ⊤ degenerates to an alias wire to the other child's ∪-gate.
//
// The builder exposes the two per-node steps (LeafBox, InnerBox) so that
// the update machinery of Section 7 can rebuild exactly the boxes touched
// by a tree hollowing.
//
// The hot path is allocation-light by construction: the automaton's
// rules are flattened once into a shared, immutable Program (leaf-box
// templates plus dense per-label transition rules — see program.go), and
// all per-box working state lives in a reusable scratch arena, so
// LeafBox allocates only the box header and InnerBox only the box and
// one slab for its arrays. Every box also carries a structural
// signature (Box.Sig) that the dynamic engine's signature-pruned repair
// compares.
//
// CONCURRENCY: a Builder is NOT safe for concurrent use — LeafBox and
// InnerBox share the scratch arena. The dynamic engine's parallel write
// path already gives every per-query pipeline its own Builder and
// confines it to one worker goroutine per publication, the same
// discipline as the pipeline's enumerate.Indexer; keep any new caller
// inside that assumption or the engine's -race stress tests will trip.
// The Program behind the builder is immutable and safely shared across
// builders and goroutines.
type Builder struct {
	A    *tva.Binary
	prog *Program
	s    scratch
}

// NewBuilder validates that the automaton is homogenized (Lemma 2.1) and
// that its OneStates metadata matches the semantic 0/1-state
// classification, then returns a Builder for it. The flattened rule
// tables come from the process-wide program cache, so builders over
// content-equal automata (every pipeline of a QuerySet registering the
// same query) share one compiled Program.
func NewBuilder(a *tva.Binary) (*Builder, error) {
	if !a.Homogenized {
		return nil, fmt.Errorf("circuit: automaton is not homogenized; call Homogenize first")
	}
	zero, one := a.ZeroOneStates()
	for q := 0; q < a.NumStates; q++ {
		if zero.Has(q) && one.Has(q) {
			return nil, fmt.Errorf("circuit: state %d is both a 0-state and a 1-state", q)
		}
		if one.Has(q) != a.OneStates.Has(q) && (zero.Has(q) || one.Has(q)) {
			return nil, fmt.Errorf("circuit: OneStates metadata wrong for state %d", q)
		}
	}
	return &Builder{A: a, prog: programFor(a)}, nil
}

// scratch is the builder's reusable working state: dense epoch-stamped
// tables replacing the per-box maps of the old construction, and
// per-state accumulation buffers whose capacity persists across boxes.
// Resetting is O(1): bumping the epoch invalidates every stamp at once
// (the arrays are rewritten lazily as slots are touched).
type scratch struct {
	epoch uint32

	// pairEpoch/pairVal: dense (left ∪-gate, right ∪-gate) → ×-gate
	// index table, the replacement for the timesIdx map.
	pairEpoch []uint32
	pairVal   []int32

	// stateEpoch marks which 1-states have live accumulators this box.
	stateEpoch []uint32
	// luEpoch/ruEpoch deduplicate (state, child ∪-gate) alias wires.
	luEpoch []uint32
	ruEpoch []uint32

	// Per-state input accumulators, reused across boxes.
	accTimes [][]int32
	accLU    [][]int32
	accRU    [][]int32

	// kind/idx are the box's γ vectors and unions its ∪-gates' input
	// lists (aliasing the accumulators), in the form layout freezes.
	kind   []GammaKind
	idx    []int32
	unions []UnionInputs

	// timesBuf accumulates the box's ×-gates before the exact-size copy.
	timesBuf []TimesGate
}

// begin starts a new box: bumps the epoch and sizes the dense tables for
// nq automaton states and (L, R) child ∪-gate counts.
func (s *scratch) begin(nq, l, r int) {
	s.epoch++
	if s.epoch == 0 {
		// uint32 wrap: stale stamps could collide with the fresh epoch.
		// Zero everything once per 2³² boxes and restart at 1. The FULL
		// capacity must be cleared — the slices are re-sliced per box, so
		// stale stamps survive in the [len:cap) tail otherwise.
		clear(s.pairEpoch[:cap(s.pairEpoch)])
		clear(s.stateEpoch[:cap(s.stateEpoch)])
		clear(s.luEpoch[:cap(s.luEpoch)])
		clear(s.ruEpoch[:cap(s.ruEpoch)])
		s.epoch = 1
	}
	s.pairEpoch = growU32(s.pairEpoch, l*r)
	s.pairVal = growI32(s.pairVal, l*r)
	s.stateEpoch = growU32(s.stateEpoch, nq)
	s.luEpoch = growU32(s.luEpoch, nq*l)
	s.ruEpoch = growU32(s.ruEpoch, nq*r)
	if len(s.accTimes) < nq {
		s.accTimes = append(s.accTimes, make([][]int32, nq-len(s.accTimes))...)
		s.accLU = append(s.accLU, make([][]int32, nq-len(s.accLU))...)
		s.accRU = append(s.accRU, make([][]int32, nq-len(s.accRU))...)
	}
	s.timesBuf = s.timesBuf[:0]
	s.unions = s.unions[:0]
	if cap(s.kind) < nq {
		s.kind = make([]GammaKind, nq)
		s.idx = make([]int32, nq)
	}
	s.kind, s.idx = s.kind[:nq], s.idx[:nq]
	for q := range s.idx {
		s.kind[q], s.idx[q] = GammaBottom, -1
	}
}

// growU32 returns a slice of length at least n; a freshly grown tail
// reads as unstamped (zero never equals a live epoch).
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// LeafBox builds the box B_n for a leaf node n with the given label,
// following the leaf case of Lemma 3.7. A leaf's gates depend on its
// label only, so the box is a header over the program's shared template
// for the label: the call allocates the header alone.
func (bd *Builder) LeafBox(label tree.Label, node tree.NodeID) *Box {
	lt := bd.prog.leafFor(label)
	return &Box{Node: node, Label: lt.label, Gates: lt.gates}
}

// innerUnit is an inner box and its gate data in one allocation.
type innerUnit struct {
	box   Box
	gates Gates
}

// InnerBox builds the box B_n for an inner node with the given label,
// node ID and child boxes, following the inner case of Lemma 3.7: one
// (deduplicated) ×-gate per pair (q1, q2) of child states that some
// transition uses and whose γ gates are both ∪-gates; alias wires when
// one side is ⊤. The children are only read, never modified: a box built
// over already-published children leaves them shareable. The box takes
// two allocations: its header with its gate data, and one slab for
// every array of the gates (see layout).
func (bd *Builder) InnerBox(label tree.Label, node tree.NodeID, left, right *Box) *Box {
	s := &bd.s
	s.begin(bd.prog.numStates, len(left.Unions), len(right.Unions))
	if ip := bd.prog.inner[label]; ip != nil {
		bd.innerGates(ip, left, right)
	}
	u := &innerUnit{box: Box{Label: label, Node: node, Left: left, Right: right}}
	u.box.Gates = &u.gates
	layout(&u.gates, s.kind, s.idx, nil, s.timesBuf, s.unions, left, right)
	return &u.box
}

// innerGates runs the label's transition program over the children's γ
// vectors, accumulating each 1-state's ∪-gate inputs in the scratch
// arena, and leaves the box's γ vectors, ×-gates and ∪-gate input lists
// in the scratch for layout.
func (bd *Builder) innerGates(ip *innerProgram, left, right *Box) {
	s := &bd.s
	nq := bd.prog.numStates
	l, r := len(left.Unions), len(right.Unions)

	// 0-states: γ is ⊤ iff both children are ⊤ for some transition.
	for _, t := range ip.zero {
		if left.GammaKind[t.left] == GammaTop && right.GammaKind[t.right] == GammaTop {
			s.kind[t.out] = GammaTop
		}
	}

	// 1-states: accumulate ×-gates and alias wires per output state.
	for _, t := range ip.one {
		g1k, g2k := left.GammaKind[t.left], right.GammaKind[t.right]
		if g1k == GammaBottom || g2k == GammaBottom {
			continue
		}
		q := t.out
		if s.stateEpoch[q] != s.epoch {
			s.stateEpoch[q] = s.epoch
			s.accTimes[q] = s.accTimes[q][:0]
			s.accLU[q] = s.accLU[q][:0]
			s.accRU[q] = s.accRU[q][:0]
		}
		switch {
		case g1k == GammaTop && g2k == GammaTop:
			// Both children reach their states only under the empty
			// valuation, so q would be a 0-state; homogenization rules
			// this out.
			panic(fmt.Sprintf("circuit: 1-state %d produced by two ⊤ children (automaton not homogenized)", q))
		case g1k == GammaTop:
			gi := right.GammaIdx[t.right]
			if slot := int(q)*r + int(gi); s.ruEpoch[slot] != s.epoch {
				s.ruEpoch[slot] = s.epoch
				s.accRU[q] = append(s.accRU[q], gi)
			}
		case g2k == GammaTop:
			gi := left.GammaIdx[t.left]
			if slot := int(q)*l + int(gi); s.luEpoch[slot] != s.epoch {
				s.luEpoch[slot] = s.epoch
				s.accLU[q] = append(s.accLU[q], gi)
			}
		default:
			li, ri := left.GammaIdx[t.left], right.GammaIdx[t.right]
			slot := int(li)*r + int(ri)
			if s.pairEpoch[slot] != s.epoch {
				s.pairEpoch[slot] = s.epoch
				s.pairVal[slot] = int32(len(s.timesBuf))
				s.timesBuf = append(s.timesBuf, TimesGate{Left: li, Right: ri})
			}
			// No per-state dedup needed: GammaIdx is injective on ∪-states
			// within each child and the program is duplicate-free, so
			// distinct rules into q contribute distinct pairs.
			s.accTimes[q] = append(s.accTimes[q], s.pairVal[slot])
		}
	}

	// Gates in the canonical order of the map-based construction:
	// ∪-gates by ascending state, input lists sorted ascending, ×-gates
	// in first-use order.
	for q := 0; q < nq; q++ {
		if s.stateEpoch[q] != s.epoch {
			continue
		}
		slices.Sort(s.accTimes[q])
		slices.Sort(s.accLU[q])
		slices.Sort(s.accRU[q])
		s.kind[q], s.idx[q] = GammaUnion, int32(len(s.unions))
		s.unions = append(s.unions, UnionInputs{Times: s.accTimes[q], Left: s.accLU[q], Right: s.accRU[q]})
	}
}

// layout freezes a box's gates into g: γ vectors, var gates, ×-gates,
// ∪-gates with their input lists, the reverse wires, and (for an inner
// box, left != nil) the wire matrices to the children, all carved from
// one zeroed slab. It also computes the signature. The arguments are
// only read.
func layout(g *Gates, kind []GammaKind, idx []int32, vars []VarGate, times []TimesGate, unions []UnionInputs, left, right *Box) {
	nq, nv, nt, nu := len(kind), len(vars), len(times), len(unions)
	nIn, nRev := 0, 0
	for _, x := range unions {
		nIn += len(x.Vars) + len(x.Times) + len(x.Left) + len(x.Right)
		nRev += len(x.Vars) + len(x.Times)
	}
	nOuts := 0
	if nv+nt > 0 {
		nOuts = nv + nt + 1
	}
	ints := nq + nIn + nRev + nOuts
	wl, wr := 0, 0
	if left != nil {
		wl, wr = bitset.Words(len(left.Unions), nu), bitset.Words(len(right.Unions), nu)
	}
	words := make([]uint64, wl+wr+slab.Words[VarGate](nv)+slab.Words[TimesGate](nt)+
		slab.Words[UnionGate](nu)+slab.Words[int32](ints)+slab.Words[GammaKind](nq))
	if left != nil {
		g.WLeft = bitset.MatrixOn(words[:wl:wl], len(left.Unions), nu)
		g.WRight = bitset.MatrixOn(words[wl:wl+wr:wl+wr], len(right.Unions), nu)
	}
	rest := words[wl+wr:]
	g.Vars = slab.Carve[VarGate](&rest, nv)
	copy(g.Vars, vars)
	g.Times = slab.Carve[TimesGate](&rest, nt)
	copy(g.Times, times)
	g.Unions = slab.Carve[UnionGate](&rest, nu)
	flat := slab.Carve[int32](&rest, ints)
	g.GammaKind = slab.Carve[GammaKind](&rest, nq)
	copy(g.GammaKind, kind)
	g.GammaIdx = flat[:nq:nq]
	copy(g.GammaIdx, idx)
	g.inputs = flat[nq : nq+nIn+nRev : nq+nIn+nRev]
	if nOuts > 0 {
		g.outs = flat[nq+nIn+nRev:]
	}

	off := int32(0)
	put := func(src []int32) int32 {
		off += int32(copy(g.inputs[off:], src))
		return off
	}
	for u, x := range unions {
		ug := &g.Unions[u]
		ug.vars = off
		ug.times = put(x.Vars)
		ug.left = put(x.Times)
		ug.right = put(x.Left)
		ug.end = put(x.Right)
		if left != nil {
			g.WLeft.SetCol(x.Left, u)
			g.WRight.SetCol(x.Right, u)
		}
	}

	// Reverse wires by counting sort: outs[k+1] counts the fan-out of
	// var gate k (×-gate k-nv), the prefix sums turn counts into start
	// offsets, the fill advances each start to its end, and a shift by
	// one slot restores the starts.
	if nOuts > 0 {
		outs := g.outs
		for _, x := range unions {
			for _, v := range x.Vars {
				outs[v+1]++
			}
			for _, t := range x.Times {
				outs[int32(nv)+t+1]++
			}
		}
		outs[0] = off
		for k := 1; k < nOuts; k++ {
			outs[k] += outs[k-1]
		}
		for u, x := range unions {
			for _, v := range x.Vars {
				g.inputs[outs[v]] = int32(u)
				outs[v]++
			}
			for _, t := range x.Times {
				k := int32(nv) + t
				g.inputs[outs[k]] = int32(u)
				outs[k]++
			}
		}
		copy(outs[1:nOuts-1], outs[:nOuts-2])
		outs[0] = off
	}
	g.Sig = computeSig(g)
}

// Assemble builds a box from explicit gates — γ vectors, var gates,
// ×-gates and ∪-gate input lists — deriving the wire matrices, the
// reverse wires and the signature the way the Builder does. It serves
// hand-built circuits; left and right are nil for a leaf box.
func Assemble(node tree.NodeID, left, right *Box, kind []GammaKind, idx []int32, vars []VarGate, times []TimesGate, unions []UnionInputs) *Box {
	g := &Gates{}
	layout(g, kind, idx, vars, times, unions, left, right)
	return &Box{Node: node, Left: left, Right: right, Gates: g}
}

// Build constructs the assignment circuit of the automaton on the whole
// binary tree (Lemma 3.7): one box per node, bottom-up.
func (bd *Builder) Build(t *tree.Binary) *Circuit {
	var rec func(n *tree.BNode) *Box
	rec = func(n *tree.BNode) *Box {
		if n.IsLeaf() {
			return bd.LeafBox(n.Label, n.ID)
		}
		l := rec(n.Left)
		r := rec(n.Right)
		return bd.InnerBox(n.Label, n.ID, l, r)
	}
	if t.Root == nil {
		return &Circuit{}
	}
	return &Circuit{Root: rec(t.Root)}
}

// RootAccepting returns the boxed set Γ of root ∪-gates γ(root, q) for
// final 1-states q, together with a flag telling whether the empty
// assignment is accepted (some final 0-state has γ(root, q) = ⊤). The
// satisfying assignments of the automaton are S(Γ), plus the empty
// assignment if the flag is set (see the proof of Theorem 8.1).
func (bd *Builder) RootAccepting(c *Circuit) (gamma bitset.Set, emptyAccepted bool) {
	root := c.Root
	gamma = bitset.NewSet(len(root.Unions))
	for _, q := range bd.A.Final {
		switch root.GammaKind[q] {
		case GammaTop:
			emptyAccepted = true
		case GammaUnion:
			gamma.Add(int(root.GammaIdx[q]))
		}
	}
	return gamma, emptyAccepted
}
