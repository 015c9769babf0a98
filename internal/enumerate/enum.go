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
)

// frameKind tells which piece of the enumeration recursion a frame
// stands for.
type frameKind uint8

const (
	// Algorithms 2+3.
	frameWalk     frameKind = iota // the walk of region (box, r) over its bidirectional boxes; gamma = nonempty rows of r
	frameVars                      // Algorithm 2 at (box, r): var gates from `at` on, then the products
	frameProducts                  // the products at box `box`: sink of the left factors; r = provenance row per ×-gate
	frameBelow                     // the regions below output box `box` (r = its relation)
	frameRegion                    // Algorithm 3's b-enum on region (box, r)
	frameRight                     // sink of the right factors completing left factor sl; gamma = the ×-gates they may complete
	// Never on a seek's trail: the naive traversal and box mode.
	frameNaive // the naive box enumeration on region (box, r)
	frameBox   // box-enumeration output (box, r)
)

// frame is one pending piece of the enumeration. Its outputs go to the
// frame at index sink — the product frame whose factor it enumerates —
// or to the consumer when sink is -1. Popping the frame releases the
// arena back to mark, the position its scratch starts at.
type frame struct {
	kind  frameKind
	at    int32
	sink  int32
	box   *IndexedBox
	r     bitset.Matrix
	gamma bitset.Set
	sl    *Rope
	mark  bitset.Mark
}

// Boxwise is Algorithm 2 (Section 5): it enumerates S(Γ) without
// duplicates for the boxed set gamma of box b, yielding for each
// assignment its provenance Prov(S, Γ) = {g ∈ Γ | S ∈ S(g)} as a set of
// local ∪-gate indices. The box enumeration is Algorithm 3 for
// ModeIndexed (Lemma 6.4) and the naive traversal otherwise. The
// provenance set is recycled after the loop body; the rope persists.
func Boxwise(b *IndexedBox, gamma bitset.Set, mode Mode) iter.Seq2[*Rope, bitset.Set] {
	return func(yield func(*Rope, bitset.Set) bool) {
		if gamma.Empty() {
			return
		}
		d := GetDescender()
		defer PutDescender(d)
		d.start(b, gamma, mode, false)
		for {
			r, prov, ok := d.next()
			if !ok || !yield(r, prov) {
				return
			}
		}
	}
}

// Ropes enumerates S(Γ) for the boxed set gamma of box b as ropes,
// without duplicates (plus the empty assignment first if emptyOK), using
// the given mode. A nil rope stands for the empty assignment. Each
// iteration runs one pooled cursor: its relations, provenance sets and
// frame stack are recycled as the enumeration proceeds and when it ends
// or is abandoned, while the yielded ropes are persistent heap values
// that may be kept and materialized later. The wrapper tree is only
// read, so any number of goroutines may run independent enumerations
// from the same wrapper concurrently.
func Ropes(b *IndexedBox, gamma bitset.Set, emptyOK bool, mode Mode) iter.Seq[*Rope] {
	return func(yield func(*Rope) bool) {
		EnumStarts.Add(1)
		if emptyOK && !yield(nil) || b == nil || gamma.Empty() {
			return
		}
		d := GetDescender()
		defer PutDescender(d)
		d.start(b, gamma, mode, false)
		d.stream(yield)
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

// start points the cursor at the first answer of S(gamma) at box b under
// mode; in box mode the outputs are the box enumeration's instead.
func (d *Descender) start(b *IndexedBox, gamma bitset.Set, mode Mode, boxes bool) {
	d.Reset()
	d.boxes = boxes
	d.region = frameRegion
	if mode == ModeNaive {
		d.region = frameNaive
	}
	d.pushRegion(b, gamma, -1)
}

// stream yields the cursor's answers until it or the consumer stops.
func (d *Descender) stream(yield func(*Rope) bool) {
	for {
		r, _, ok := d.next()
		if !ok || !yield(r) {
			return
		}
	}
}

// push puts a frame whose scratch starts at arena position m on the
// stack and returns its index.
func (d *Descender) push(m bitset.Mark, f frame) int32 {
	f.mark = m
	d.stack = append(d.stack, f)
	d.deep = max(d.deep, len(d.stack))
	return int32(len(d.stack) - 1)
}

// pop drops the top frame and releases its scratch.
func (d *Descender) pop() {
	top := len(d.stack) - 1
	d.mats.Release(d.stack[top].mark)
	d.stack = d.stack[:top]
}

// pushRegion pushes the enumeration of S(gamma) at box b — the whole
// enumeration, or a factor of a product — on its seed relation, the
// identity on gamma.
func (d *Descender) pushRegion(b *IndexedBox, gamma bitset.Set, sink int32) {
	m := d.mats.Mark()
	d.push(m, frame{kind: d.region, box: b, r: d.seedRelation(b.Box, gamma), sink: sink})
}

// next runs the cursor to its next answer: the rope, and its provenance
// (columns of the root relation deriving it), which is scratch valid
// until the following call. ok is false once the enumeration is
// exhausted. In box mode the answer is d.out instead.
func (d *Descender) next() (rope *Rope, prov bitset.Set, ok bool) {
	for len(d.stack) > 0 {
		i := int32(len(d.stack) - 1)
		f := &d.stack[i]
		switch f.kind {
		case frameVars:
			if rope, prov, ok = d.stepVars(f, i); ok {
				return rope, prov, true
			}
		case frameBox:
			d.out = BoxRelation{f.box, f.r}
			d.pop()
			return nil, bitset.Set{}, true
		case frameProducts, frameRight:
			d.pop() // its factors are exhausted
		default:
			d.stepBoxes(f)
		}
	}
	return nil, bitset.Set{}, false
}

// stepVars advances Algorithm 2 at one output box B′. Lines 4-7 emit the
// next var gate of B′ in ↓(Γ) with its provenance, the union of the
// relation rows of the ∪-gates it feeds ({h}∘W∘R(B′, Γ)). Once they run
// out, lines 8-9 select G×, the ×-gates of B′ in ↓(Γ), and the frame
// becomes the sink of their left factors: lines 10-16 continue in
// startRight and route.
func (d *Descender) stepVars(f *frame, i int32) (*Rope, bitset.Set, bool) {
	bp := f.box.Box
	for vi := int(f.at); vi < len(bp.Vars); vi++ {
		d.mats.Release(f.mark) // the previous output's scratch
		prov := d.gateProv(f.r, bp.VarOut(vi))
		if prov.Empty() {
			continue
		}
		f.at = int32(vi + 1)
		return d.route(f.sink, d.slab.leaf(bp.Vars[vi].Set, bp.Node), prov)
	}
	d.mats.Release(f.mark)
	if len(bp.Times) > 0 {
		if provT, gammaL, ok := d.timesDown(bp, f.r); ok {
			f.kind, f.r = frameProducts, provT
			d.pushRegion(f.box.Left, gammaL, i)
			return nil, bitset.Set{}, false
		}
	}
	d.pop()
	return nil, bitset.Set{}, false
}

// timesDown computes G× for box bp under relation r: the provenance row
// of each ×-gate (empty for the ×-gates outside ↓(Γ)), the left ∪-gates
// the ×-gates in G× read — the boxed set of the left factors — and
// whether G× is nonempty.
func (d *Descender) timesDown(bp *circuit.Box, r bitset.Matrix) (provT bitset.Matrix, gammaL bitset.Set, ok bool) {
	provT = d.mats.Matrix(len(bp.Times), r.Cols)
	gammaL = d.mats.Set(len(bp.Left.Unions))
	for ti, t := range bp.Times {
		p := provT.Row(ti)
		for _, u := range bp.TimesOut(ti) {
			p.Or(r.Row(int(u)))
		}
		if !p.Empty() {
			gammaL.Add(int(t.Left))
			ok = true
		}
	}
	return provT, gammaL, ok
}

// route delivers an output of a frame whose sink is s. A product frame
// takes it as a left factor and starts the right factors that complete
// it (startRight). A frameRight pairs it, as a right factor, with the
// frame's left factor — the product's provenance is Algorithm 2 line
// 15's — and passes the product on to the sink of its product frame.
// ok reports an answer for the consumer.
func (d *Descender) route(s int32, rope *Rope, prov bitset.Set) (*Rope, bitset.Set, bool) {
	for s >= 0 {
		f := &d.stack[s]
		if f.kind != frameRight {
			d.startRight(s, rope, prov)
			return nil, bitset.Set{}, false
		}
		p := &d.stack[f.sink]
		var ok bool
		if prov, ok = d.productProv(p.box.Box, p.r, f.gamma, prov); !ok {
			return nil, bitset.Set{}, false
		}
		rope = d.slab.concat(f.sl, rope)
		s = p.sink
	}
	return rope, prov, true
}

// startRight is Algorithm 2 lines 11-14 for left factor sl, with
// provenance provL, arriving at the product frame s: it pushes a
// frameRight holding sl and the ×-gates sl feeds, then the enumeration
// of the right factors those ×-gates read.
func (d *Descender) startRight(s int32, sl *Rope, provL bitset.Set) {
	p := &d.stack[s]
	m := d.mats.Mark()
	b, provT := p.box, p.r
	bp := b.Box
	liveT := d.mats.Set(len(bp.Times))
	gammaR := d.mats.Set(len(bp.Right.Unions))
	for ti, t := range bp.Times {
		if !provT.RowEmpty(ti) && provL.Has(int(t.Left)) {
			liveT.Add(ti)
			gammaR.Add(int(t.Right))
		}
	}
	if liveT.Empty() {
		d.mats.Release(m)
		return
	}
	q := d.push(m, frame{kind: frameRight, sl: sl, gamma: liveT, sink: s})
	d.pushRegion(b.Right, gammaR, q)
}

// productProv is the provenance of a product whose right factor has
// provenance provR: the union of the provenance rows of the live
// ×-gates matching both factors. ok is false if none matches (cannot
// happen per Theorem 5.3).
func (d *Descender) productProv(bp *circuit.Box, provT bitset.Matrix, liveT, provR bitset.Set) (prov bitset.Set, ok bool) {
	prov = d.mats.Set(provT.Cols)
	for ti := liveT.Next(0); ti >= 0; ti = liveT.Next(ti + 1) {
		if provR.Has(int(bp.Times[ti].Right)) {
			prov.Or(provT.Row(ti))
			ok = true
		}
	}
	return prov, ok
}
