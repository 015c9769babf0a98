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
		d := GetDescender()
		defer PutDescender(d)
		d.Reset()
		d.push(d.mats.Mark(), frame{kind: frameGamma, cb: b, gamma: gamma, sink: -1})
		d.stream(yield)
	}
}

// stepSimple advances a frame of Algorithm 1: the next gate of gamma
// (frameGamma), or the next input of a ∪-gate (frameInputs) in the
// algorithm's order — var inputs, ×-inputs, left-child ∪-inputs,
// right-child ∪-inputs. A var input is emitted, a ×-input becomes a
// product frame over the enumeration of its left factors (left factor
// outermost), a ∪-input pushes that gate's inputs. Algorithm 1 computes
// no provenance, so nothing here carves scratch.
func (d *Descender) stepSimple(f *frame) (*Rope, bool) {
	m := d.mats.Mark()
	cb, sink := f.cb, f.sink
	if f.kind == frameGamma {
		u := f.gamma.Next(int(f.at))
		if u < 0 {
			d.pop()
			return nil, false
		}
		f.at = int32(u + 1)
		d.push(m, frame{kind: frameInputs, cb: cb, u: int32(u), sink: sink})
		return nil, false
	}
	g, k := &cb.Unions[f.u], int(f.at)
	f.at++
	if k < len(g.Vars) {
		vg := cb.Vars[g.Vars[k]]
		rope, _, ok := d.route(sink, d.slab.leaf(vg.Set, vg.Node), bitset.Set{})
		return rope, ok
	}
	if k -= len(g.Vars); k < len(g.Times) {
		p := d.push(m, frame{kind: frameSimpleProduct, cb: cb, u: g.Times[k], sink: sink})
		d.push(m, frame{kind: frameInputs, cb: cb.Left, u: cb.Times[g.Times[k]].Left, sink: p})
		return nil, false
	}
	switch k -= len(g.Times); {
	case k < len(g.LeftUnions):
		d.push(m, frame{kind: frameInputs, cb: cb.Left, u: g.LeftUnions[k], sink: sink})
	case k-len(g.LeftUnions) < len(g.RightUnions):
		d.push(m, frame{kind: frameInputs, cb: cb.Right, u: g.RightUnions[k-len(g.LeftUnions)], sink: sink})
	default:
		d.pop()
	}
	return nil, false
}
