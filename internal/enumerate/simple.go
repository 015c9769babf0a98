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
	u, k := int(f.u), int(f.at)
	f.at++
	vars, times := cb.UnionVars(u), cb.UnionTimes(u)
	lefts, rights := cb.UnionLeft(u), cb.UnionRight(u)
	switch nv, nt, nl := len(vars), len(times), len(lefts); {
	case k < nv:
		rope, _, ok := d.route(sink, d.slab.leaf(cb.Vars[vars[k]].Set, cb.Node), bitset.Set{})
		return rope, ok
	case k < nv+nt:
		t := times[k-nv]
		p := d.push(m, frame{kind: frameSimpleProduct, cb: cb, u: t, sink: sink})
		d.push(m, frame{kind: frameInputs, cb: cb.Left, u: cb.Times[t].Left, sink: p})
	case k < nv+nt+nl:
		d.push(m, frame{kind: frameInputs, cb: cb.Left, u: lefts[k-nv-nt], sink: sink})
	case k < nv+nt+nl+len(rights):
		d.push(m, frame{kind: frameInputs, cb: cb.Right, u: rights[k-nv-nt-nl], sink: sink})
	default:
		d.pop()
	}
	return nil, false
}
