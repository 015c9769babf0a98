package enumerate

import (
	"iter"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/tree"
)

// EnumStarts counts how many enumerations have been started from the
// first answer (one increment per iteration of a Ropes/Assignments
// sequence, not per result; a RopesFrom stream starts at its seek and
// is not counted). It is a test instrumentation hook: regression tests
// assert that the algebraic fast paths (Snapshot.Count, Snapshot.At,
// Snapshot.Page) never enumerate their way to a rank by observing this
// counter. Production code never reads it.
var EnumStarts atomic.Int64

// Mode selects the enumeration strategy.
type Mode int

const (
	// ModeIndexed is the full algorithm of the paper: Algorithm 2 over
	// Algorithm 3, duplicate-free with delay independent of the circuit
	// depth (Theorem 6.5). Requires BuildIndex.
	ModeIndexed Mode = iota
	// ModeNaive is Algorithm 2 over the naive box enumeration:
	// duplicate-free, delay proportional to circuit depth (Section 5).
	ModeNaive
	// ModeSimple is Algorithm 1: duplicates allowed, delay proportional
	// to circuit depth (Section 4).
	ModeSimple
)

// boxEnumFor returns the box-enumeration strategy for a mode.
func boxEnumFor(m Mode) BoxEnum {
	if m == ModeIndexed {
		return IndexedBoxEnum
	}
	return NaiveBoxEnum
}

// Boxwise is Algorithm 2 (Section 5): it enumerates S(Γ) without
// duplicates for the boxed set gamma of box b, yielding for each
// assignment its provenance Prov(S, Γ) = {g ∈ Γ | S ∈ S(g)} as a set of
// local ∪-gate indices. The box enumeration strategy is a parameter
// (Lemma 6.4 supplies the efficient one).
func Boxwise(b *IndexedBox, gamma bitset.Set, be BoxEnum) iter.Seq2[*Rope, bitset.Set] {
	return func(yield func(*Rope, bitset.Set) bool) {
		if gamma.Empty() {
			return
		}
		for br := range be(b, gamma) {
			if !boxwiseStep(br, be, yield) {
				return
			}
		}
	}
}

// boxwiseStep processes one interesting box B′ (lines 4-16 of Algorithm
// 2): outputs the assignments of var gates of B′ whose ∪-wires reach Γ,
// then recursively combines the ×-gates of B′.
func boxwiseStep(br BoxRelation, be BoxEnum, yield func(*Rope, bitset.Set) bool) bool {
	// Leaf boxes, where the answers of single-variable queries live,
	// have no ×-gates: skip the product machinery's setup for them.
	return boxVars(br, 0, yield) && (len(br.Box.Box.Times) == 0 || boxProducts(br, be, yield))
}

// boxVars is lines 4-7 of Algorithm 2 from the var gate with index
// first on: each var gate of B′ in ↓(Γ), with its provenance.
func boxVars(br BoxRelation, first int, yield func(*Rope, bitset.Set) bool) bool {
	bp := br.Box.Box
	// Provenance of each local ↓-gate: union of the R-rows of the
	// ∪-gates it feeds (this is {h}∘W∘R(B′,Γ) from the paper).
	for vi := first; vi < len(bp.Vars); vi++ {
		prov := gateProv(br.R, bp.VarOut[vi])
		if prov.Empty() {
			continue
		}
		vg := bp.Vars[vi]
		if !yield(LeafRope(vg.Set, vg.Node), prov) {
			return false
		}
	}
	return true
}

// boxProducts is lines 8-16 of Algorithm 2: the products of the ×-gates
// of B′ in ↓(Γ), left factor outermost.
func boxProducts(br BoxRelation, be BoxEnum, yield func(*Rope, bitset.Set) bool) bool {
	bp := br.Box.Box
	provT, inDown, gammaL := timesDown(br)
	if provT == nil {
		return true
	}
	// Lines 10-16: enumerate left factors, then for each the compatible
	// right factors.
	for sl, provL := range Boxwise(br.Box.Left, gammaL, be) {
		gammaR, liveT := rightGates(bp, inDown, provL)
		if len(liveT) == 0 {
			continue
		}
		for sr, provR := range Boxwise(br.Box.Right, gammaR, be) {
			if prov, ok := productProv(bp, provT, liveT, provR); ok && !yield(Concat(sl, sr), prov) {
				return false
			}
		}
	}
	return true
}

// timesDown computes G×, the ×-gates of B′ in ↓(Γ): their provenances,
// membership flags, and the left ∪-gates they read (the boxed set of
// the left factors). provT is nil when G× is empty.
func timesDown(br BoxRelation) (provT []bitset.Set, inDown []bool, gammaL bitset.Set) {
	bp := br.Box.Box
	if len(bp.Times) == 0 {
		return nil, nil, gammaL
	}
	provT = make([]bitset.Set, len(bp.Times))
	inDown = make([]bool, len(bp.Times))
	gammaL = bitset.NewSet(len(bp.Left.Unions))
	any := false
	for ti := range bp.Times {
		p := gateProv(br.R, bp.TimesOut[ti])
		if p.Empty() {
			continue
		}
		provT[ti] = p
		inDown[ti] = true
		gammaL.Add(int(bp.Times[ti].Left))
		any = true
	}
	if !any {
		return nil, nil, gammaL
	}
	return provT, inDown, gammaL
}

// rightGates returns, for a left factor with provenance provL, the ×-gates
// of G× it feeds (liveT) and the right ∪-gates they read (the boxed set
// of its compatible right factors).
func rightGates(bp *circuit.Box, inDown []bool, provL bitset.Set) (gammaR bitset.Set, liveT []int32) {
	gammaR = bitset.NewSet(len(bp.Right.Unions))
	liveT = make([]int32, 0, len(bp.Times))
	for ti := range bp.Times {
		if inDown[ti] && provL.Has(int(bp.Times[ti].Left)) {
			liveT = append(liveT, int32(ti))
			gammaR.Add(int(bp.Times[ti].Right))
		}
	}
	return gammaR, liveT
}

// productProv is the provenance of a product whose right factor has
// provenance provR: the union of the provenances of the live ×-gates
// matching both sides. ok is false if none matches (cannot happen per
// Theorem 5.3).
func productProv(bp *circuit.Box, provT []bitset.Set, liveT []int32, provR bitset.Set) (prov bitset.Set, ok bool) {
	for _, ti := range liveT {
		if !provR.Has(int(bp.Times[ti].Right)) {
			continue
		}
		if !ok {
			prov = provT[ti].Clone()
			ok = true
		} else {
			prov.Or(provT[ti])
		}
	}
	return prov, ok
}

// gateProv computes the provenance of a local gate: the union of the
// relation rows of the ∪-gates listed in outs.
func gateProv(r bitset.Matrix, outs []int32) bitset.Set {
	prov := bitset.NewSet(r.Cols)
	for _, u := range outs {
		prov.Or(r.Row(int(u)))
	}
	return prov
}

// Ropes enumerates S(Γ) for the boxed set gamma of box b as ropes,
// without duplicates (plus the empty assignment first if emptyOK), using
// the given mode. A nil rope stands for the empty assignment. The
// wrapper tree is only read, so any number of goroutines may run
// independent enumerations from the same wrapper concurrently.
func Ropes(b *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode) iter.Seq[*Rope] {
	return func(yield func(*Rope) bool) {
		EnumStarts.Add(1)
		if emptyOK {
			if !yield(nil) {
				return
			}
		}
		if b == nil || gamma.Empty() {
			return
		}
		if mode == ModeSimple {
			for r := range Simple(b.Box, gamma) {
				if !yield(r) {
					return
				}
			}
			return
		}
		for r := range Boxwise(b, gamma, boxEnumFor(mode)) {
			if !yield(r) {
				return
			}
		}
	}
}

// Assignments is like Ropes but materializes each assignment (the empty
// assignment materializes to an empty, non-nil slice).
func Assignments(b *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode) iter.Seq[tree.Assignment] {
	return func(yield func(tree.Assignment) bool) {
		for r := range Ropes(b, gamma, emptyOK, mode) {
			if r == nil {
				if !yield(tree.Assignment{}) {
					return
				}
				continue
			}
			if !yield(r.Materialize()) {
				return
			}
		}
	}
}
