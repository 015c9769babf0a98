package enumerate

import (
	"iter"

	"repro/internal/bitset"
	"repro/internal/circuit"
)

// Simple implements Algorithm 1 (Section 4): enumerate the assignments
// captured by the ∪-gates of gamma (a set of local ∪-gate indices of box
// b), with duplicates, by naive preorder traversal of the circuit. The
// worst-case delay is O(depth(C) · |S|). It exists as a correctness anchor
// and as the baseline whose delay experiment E8 contrasts with the
// indexed enumeration.
func Simple(b *circuit.Box, gamma bitset.Set) iter.Seq[*Rope] {
	return func(yield func(*Rope) bool) {
		gamma.ForEach(func(u int) bool {
			return simpleUnion(b, u, yield)
		})
	}
}

// simpleUnion enumerates S of one ∪-gate; returns false if the consumer
// stopped.
func simpleUnion(b *circuit.Box, u int, yield func(*Rope) bool) bool {
	return simpleInputs(b, u, 0, yield)
}

// simpleInputs enumerates the inputs of ∪-gate u of box b in Algorithm
// 1's order — var inputs, ×-inputs, left-child ∪-inputs, right-child
// ∪-inputs — from position from of that list on (0 is all of S(u)), so
// a ranked seek (seek.go) can resume after the input it landed in.
func simpleInputs(b *circuit.Box, u, from int, yield func(*Rope) bool) bool {
	g := &b.Unions[u]
	for _, v := range g.Vars[min(from, len(g.Vars)):] {
		vg := b.Vars[v]
		if !yield(LeafRope(vg.Set, vg.Node)) {
			return false
		}
	}
	from = max(from-len(g.Vars), 0)
	for _, t := range g.Times[min(from, len(g.Times)):] {
		tg := b.Times[t]
		ok := true
		simpleUnion(b.Left, int(tg.Left), func(sl *Rope) bool {
			return simpleUnion(b.Right, int(tg.Right), func(sr *Rope) bool {
				if !yield(Concat(sl, sr)) {
					ok = false
					return false
				}
				return true
			}) && ok
		})
		if !ok {
			return false
		}
	}
	from = max(from-len(g.Times), 0)
	for _, l := range g.LeftUnions[min(from, len(g.LeftUnions)):] {
		if !simpleUnion(b.Left, int(l), yield) {
			return false
		}
	}
	from = max(from-len(g.LeftUnions), 0)
	for _, r := range g.RightUnions[min(from, len(g.RightUnions)):] {
		if !simpleUnion(b.Right, int(r), yield) {
			return false
		}
	}
	return true
}
