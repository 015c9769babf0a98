// Package counting implements the multiset-semantics remark at the end
// of Section 4 of the paper: "up to redefining Definition 3.1 with
// multisets ... each assignment in S(γ(n,q)) is enumerated exactly as
// many times as there are runs". Evaluating the assignment circuit in a
// commutative semiring computes such aggregates without enumerating:
//
//   - Derivations (ℕ, +, ×) counts circuit derivations per gate: the
//     number of (run, valuation) pairs, with empty-annotation subtree
//     completions collapsed to one by homogenization (exactly the
//     multiplicity with which Algorithm 1 would enumerate). For
//     unambiguous automata this equals the number of satisfying
//     assignments, giving constant-time COUNT(*) after preprocessing.
//   - MinSize / MaxSize (tropical) compute the smallest/largest result
//     size without producing any result.
//
// A box's values are a function of its gates and its children's values
// (Folder, one bottom-up step), and the update machinery rebuilds boxes
// as fresh objects exactly on the hollowing trunk, so aggregates are
// maintained under updates with the same O(log n) recomputation as the
// index: the engine folds each fresh box from its children's frozen
// values. This is the "aggregation on factorized representations"
// connection the paper draws to [32].
package counting

import (
	"math/big"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/circuit"
)

// Semiring is a commutative semiring over T.
type Semiring[T any] interface {
	Zero() T                 // neutral for Add (captured set empty)
	One() T                  // neutral for Mul (the empty assignment)
	Add(a, b T) T            // union of captured multisets
	Mul(a, b T) T            // relational product
	Var(g circuit.VarGate) T // value of a var gate's single assignment
}

// Accumulator is an optional Semiring extension for allocation-light
// folding: the fold keeps one accumulator per ∪-gate of the box in
// flight, reuses them from box to box, and freezes their final values
// into the box's result. Reset, AddTo and MulAddTo may MUTATE acc (which
// the fold guarantees is one of its own accumulators, never a value it
// handed out); Freeze must return values that share no storage with the
// accumulators.
type Accumulator[T any] interface {
	Reset(acc T) T          // 0, reusing acc's storage (acc may be the zero T)
	AddTo(acc, x T) T       // acc + x
	MulAddTo(acc, a, b T) T // acc + a·b
	Freeze(accs []T) []T    // frozen copies of accs
}

// Folder computes the values of a box's ∪-gates from the values of its
// children's ∪-gates: one bottom-up step of evaluating the circuit in a
// semiring. It is the one fold of the package — the engine calls it once
// per fresh box and stores the result on the box's frozen wrapper, and
// Evaluator calls it for every box it caches. A leaf's values depend on
// its gates alone, so a Folder folds each leaf template once and hands
// the same frozen slice to every leaf box built from it.
//
// CONCURRENCY: a Folder is NOT safe for concurrent use (the accumulators
// and the leaf cache are shared across calls); confine it like a
// circuit.Builder. The slices it returns are frozen and may be shared
// with any number of readers, as long as nobody modifies them.
type Folder[T any] struct {
	S      Semiring[T]
	reset  func(acc T) T
	addTo  func(acc, x T) T
	mulAdd func(acc, a, b T) T
	freeze func(accs []T) []T
	accs   []T
	leaves map[*circuit.Gates][]T
}

// NewFolder returns a folder for the semiring, folding in place when it
// implements Accumulator.
func NewFolder[T any](s Semiring[T]) *Folder[T] {
	f := &Folder[T]{S: s, leaves: map[*circuit.Gates][]T{}}
	if acc, ok := s.(Accumulator[T]); ok {
		f.reset, f.addTo, f.mulAdd, f.freeze = acc.Reset, acc.AddTo, acc.MulAddTo, acc.Freeze
	} else {
		f.reset = func(T) T { return s.Zero() }
		f.addTo = s.Add
		f.mulAdd = func(acc, a, b T) T { return s.Add(acc, s.Mul(a, b)) }
		f.freeze = slices.Clone[[]T]
	}
	return f
}

// Box returns the values of b's ∪-gates, indexed by local ∪-gate, given
// the values of the ∪-gates of b's children (nil for a leaf). It returns
// nil for a box without ∪-gates.
func (f *Folder[T]) Box(b *circuit.Box, left, right []T) []T {
	nu := len(b.Unions)
	if nu == 0 {
		return nil
	}
	if b.IsLeaf() {
		if v, ok := f.leaves[b.Gates]; ok {
			return v
		}
	}
	if len(f.accs) < nu {
		f.accs = append(f.accs, make([]T, nu-len(f.accs))...)
	}
	accs := f.accs[:nu]
	for u := range accs {
		v := f.reset(accs[u])
		for _, vi := range b.UnionVars(u) {
			v = f.addTo(v, f.S.Var(b.Vars[vi]))
		}
		for _, ti := range b.UnionTimes(u) {
			t := b.Times[ti]
			v = f.mulAdd(v, left[t.Left], right[t.Right])
		}
		for _, l := range b.UnionLeft(u) {
			v = f.addTo(v, left[l])
		}
		for _, r := range b.UnionRight(u) {
			v = f.addTo(v, right[r])
		}
		accs[u] = v
	}
	vals := f.freeze(accs)
	if b.IsLeaf() {
		f.leaves[b.Gates] = vals
	}
	return vals
}

// Total is the value of the whole circuit at a root whose ∪-gate values
// are vals: the sum over the accepting boxed set γ, plus One when the
// empty assignment is accepted (the output of
// circuit.Builder.RootAccepting).
func Total[T any](s Semiring[T], vals []T, gamma bitset.Set, emptyOK bool) T {
	v := s.Zero()
	if emptyOK {
		v = s.Add(v, s.One())
	}
	for u := gamma.Next(0); u >= 0; u = gamma.Next(u + 1) {
		v = s.Add(v, vals[u])
	}
	return v
}

// Evaluator computes per-∪-gate semiring values of whole circuits, one
// Folder step per box, caching each box's values by box identity. Boxes
// rebuilt by updates get fresh identities, so cached values of untouched
// subtrees stay valid across updates.
//
// CONCURRENCY: an Evaluator is NOT safe for concurrent use — every
// method may fill the cache. Only the immutable value slices it hands out
// via UnionsOf may be shared with lock-free readers.
type Evaluator[T any] struct {
	S     Semiring[T]
	fold  *Folder[T]
	cache map[*circuit.Box][]T
}

// NewEvaluator returns an evaluator for the semiring.
func NewEvaluator[T any](s Semiring[T]) *Evaluator[T] {
	return &Evaluator[T]{S: s, fold: NewFolder(s), cache: map[*circuit.Box][]T{}}
}

// UnionsOf evaluates every ∪-gate of box b (and, first, of every box
// below it not yet cached) and returns the values, indexed by local
// ∪-gate. The slice is frozen (see Folder), so callers may publish it
// into concurrently read structures as long as they never modify it.
// Returns nil for boxes without ∪-gates.
func (e *Evaluator[T]) UnionsOf(b *circuit.Box) []T {
	if v, ok := e.cache[b]; ok {
		return v
	}
	var l, r []T
	if !b.IsLeaf() {
		l, r = e.UnionsOf(b.Left), e.UnionsOf(b.Right)
	}
	v := e.fold.Box(b, l, r)
	e.cache[b] = v
	return v
}

// Union returns the value of ∪-gate u of box b.
func (e *Evaluator[T]) Union(b *circuit.Box, u int) T { return e.UnionsOf(b)[u] }

// Gamma evaluates the boxed set of accepting root gates plus the empty
// assignment flag (the output of circuit.Builder.RootAccepting).
func (e *Evaluator[T]) Gamma(b *circuit.Box, gamma bitset.Set, emptyOK bool) T {
	return Total(e.S, e.UnionsOf(b), gamma, emptyOK)
}

// Forget drops the cache entry of one box, so a long-lived evaluator can
// track a live term whose boxes retire; values already handed out are
// frozen and unaffected.
func (e *Evaluator[T]) Forget(b *circuit.Box) {
	delete(e.cache, b)
}

// Derivations is the counting semiring (ℕ, +, ×) over big integers:
// counts circuit derivations (run multiplicities, Section 4 remark).
type Derivations struct{}

// Zero returns 0.
func (Derivations) Zero() *big.Int { return big.NewInt(0) }

// One returns 1.
func (Derivations) One() *big.Int { return big.NewInt(1) }

// Add returns a+b.
func (Derivations) Add(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) }

// Mul returns a·b.
func (Derivations) Mul(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }

// Var returns 1: each var gate captures one assignment once.
func (Derivations) Var(circuit.VarGate) *big.Int { return big.NewInt(1) }

// Reset implements the Accumulator extension: acc = 0 in place.
func (Derivations) Reset(acc *big.Int) *big.Int {
	if acc == nil {
		return new(big.Int)
	}
	return acc.SetInt64(0)
}

// AddTo implements the Accumulator extension: acc += x in place.
func (Derivations) AddTo(acc, x *big.Int) *big.Int { return acc.Add(acc, x) }

// MulAddTo implements the Accumulator extension: acc += a·b in place,
// without a temporary while every value fits in 64 bits.
func (Derivations) MulAddTo(acc, a, b *big.Int) *big.Int {
	if a.IsUint64() && b.IsUint64() && acc.IsUint64() {
		hi, lo := bits.Mul64(a.Uint64(), b.Uint64())
		if sum, carry := bits.Add64(acc.Uint64(), lo, 0); hi == 0 && carry == 0 {
			return acc.SetUint64(sum)
		}
	}
	return acc.Add(acc, new(big.Int).Mul(a, b))
}

// Freeze implements the Accumulator extension: the copies of one box's
// counts live in one []big.Int over one shared word backing, so a box's
// counts cost three allocations whatever their number.
func (Derivations) Freeze(accs []*big.Int) []*big.Int {
	words := 0
	for _, a := range accs {
		words += len(a.Bits())
	}
	ints := make([]big.Int, len(accs))
	backing := make([]big.Word, words)
	out := make([]*big.Int, len(accs))
	for i, a := range accs {
		n := copy(backing, a.Bits())
		out[i] = ints[i].SetBits(backing[:n:n])
		backing = backing[n:]
	}
	return out
}

// sizeInf is the +∞ (resp. -∞) marker for the tropical semirings.
const sizeInf = int64(1) << 60

// MinSize is the (min, +) tropical semiring on assignment sizes: the
// value of a gate is the smallest |S| over captured assignments S
// (Zero = +∞ for the empty set).
type MinSize struct{}

// Zero returns +∞.
func (MinSize) Zero() int64 { return sizeInf }

// One returns 0 (the empty assignment has size 0).
func (MinSize) One() int64 { return 0 }

// Add returns min(a, b).
func (MinSize) Add(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Mul returns a+b (sizes add under relational product), saturating at
// +∞.
func (MinSize) Mul(a, b int64) int64 {
	if a >= sizeInf || b >= sizeInf {
		return sizeInf
	}
	return a + b
}

// Var returns the number of singletons of the var gate.
func (MinSize) Var(g circuit.VarGate) int64 { return int64(g.Set.Count()) }

// MaxSize is the (max, +) tropical semiring: largest assignment size.
type MaxSize struct{}

// Zero returns -∞.
func (MaxSize) Zero() int64 { return -sizeInf }

// One returns 0.
func (MaxSize) One() int64 { return 0 }

// Add returns max(a, b).
func (MaxSize) Add(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Mul returns a+b, saturating at -∞.
func (MaxSize) Mul(a, b int64) int64 {
	if a <= -sizeInf || b <= -sizeInf {
		return -sizeInf
	}
	return a + b
}

// Var returns the number of singletons of the var gate.
func (MaxSize) Var(g circuit.VarGate) int64 { return int64(g.Set.Count()) }

// Bool is the Boolean semiring: nonemptiness without enumeration.
type Bool struct{}

// Zero returns false.
func (Bool) Zero() bool { return false }

// One returns true.
func (Bool) One() bool { return true }

// Add returns a∨b.
func (Bool) Add(a, b bool) bool { return a || b }

// Mul returns a∧b.
func (Bool) Mul(a, b bool) bool { return a && b }

// Var returns true.
func (Bool) Var(circuit.VarGate) bool { return true }

// IsInfinite reports whether a tropical value is ±∞ (empty captured
// set).
func IsInfinite(v int64) bool { return v >= sizeInf || v <= -sizeInf }
