// Package tree implements the Λ-trees of the paper: rooted ordered trees
// with labeled nodes, in both the unranked flavor (Section 7, the input to
// the dynamic enumeration pipeline) and the binary flavor (Sections 2-6,
// the form on which circuits are built). It also implements valuations,
// assignments (Section 2) and the edit operations of Definition 7.1.
package tree

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Label is a node label from the tree alphabet Λ.
type Label string

// Var is a query variable from the variable set X, identified by its index.
// At most MaxVars variables are supported because variable sets are packed
// into 32-bit masks.
type Var uint8

// MaxVars is the maximum number of distinct variables in a query.
const MaxVars = 32

// VarSet is a set of variables packed as a bit mask: bit i set means
// variable i is present. It implements the 2^X annotations the automata
// read on nodes.
type VarSet uint32

// NewVarSet builds a VarSet from the given variables.
func NewVarSet(vars ...Var) VarSet {
	var s VarSet
	for _, v := range vars {
		s |= 1 << v
	}
	return s
}

// Has reports whether v is in the set.
func (s VarSet) Has(v Var) bool { return s&(1<<v) != 0 }

// Add returns s with v added.
func (s VarSet) Add(v Var) VarSet { return s | 1<<v }

// Remove returns s without v.
func (s VarSet) Remove(v Var) VarSet { return s &^ (1 << v) }

// Empty reports whether the set is empty.
func (s VarSet) Empty() bool { return s == 0 }

// Count returns the number of variables in the set.
func (s VarSet) Count() int { return bits.OnesCount32(uint32(s)) }

// Vars returns the variables of the set in increasing order.
func (s VarSet) Vars() []Var {
	out := make([]Var, 0, s.Count())
	for m := uint32(s); m != 0; m &= m - 1 {
		out = append(out, Var(bits.TrailingZeros32(m)))
	}
	return out
}

// String renders the set as "{X0, X2}".
func (s VarSet) String() string {
	parts := make([]string, 0, s.Count())
	for _, v := range s.Vars() {
		parts = append(parts, fmt.Sprintf("X%d", v))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SubsetsOf enumerates all subsets of universe (including the empty set),
// calling f on each. Used by automata constructions that must consider
// every possible annotation over the live variables.
func SubsetsOf(universe VarSet, f func(VarSet)) {
	u := uint32(universe)
	sub := uint32(0)
	for {
		f(VarSet(sub))
		if sub == u {
			return
		}
		sub = (sub - u) & u // next subset of u after sub
	}
}

// NodeID is a stable identifier for a tree node. IDs are unique within a
// tree for its whole lifetime (they are never reused after deletions), so
// assignments remain meaningful across updates that do not touch their
// nodes.
type NodeID int

// InvalidNode is the sentinel NodeID meaning "no node": unapplied batch
// positions, holes of forest-typed terms, not-yet-found search results.
// Real IDs are never negative.
const InvalidNode NodeID = -1

// Singleton is a pair ⟨Z : n⟩ stating that variable Z is assigned node n
// (Section 2). Assignments are sets of singletons.
type Singleton struct {
	Var  Var
	Node NodeID
}

// String renders the singleton as "⟨X1:n4⟩".
func (s Singleton) String() string { return fmt.Sprintf("<X%d:n%d>", s.Var, s.Node) }

// Assignment is a set of singletons, kept sorted by (Node, Var). It is the
// output format of the enumeration algorithms: the assignment α(ν) of a
// valuation ν.
type Assignment []Singleton

// Normalize sorts the assignment and removes duplicates, returning the
// canonical form. It works in place and allocates nothing; an assignment
// already in order (the usual case for materialized answers) is only
// scanned.
func (a Assignment) Normalize() Assignment {
	if !slices.IsSortedFunc(a, compareSingletons) {
		slices.SortFunc(a, compareSingletons)
	}
	out := a[:0]
	for i, s := range a {
		if i == 0 || s != a[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// compareSingletons orders singletons by (Node, Var).
func compareSingletons(x, y Singleton) int {
	if c := cmp.Compare(x.Node, y.Node); c != 0 {
		return c
	}
	return cmp.Compare(x.Var, y.Var)
}

// Key returns a canonical string usable as a map key for set-of-assignment
// comparisons: "<node>:<var>;" per singleton, in order. The assignment
// must be normalized. The bytes are part of the contract — delta
// streams are ordered by them (SortByKey, CompareKeys).
func (a Assignment) Key() string {
	var stack [64]byte // typical keys never leave the stack
	buf := stack[:0]
	for _, s := range a {
		buf = strconv.AppendInt(buf, int64(s.Node), 10)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, uint64(s.Var), 10)
		buf = append(buf, ';')
	}
	return string(buf)
}

// SortByKey sorts assignments by Key, without building the keys.
func SortByKey(as []Assignment) { slices.SortFunc(as, CompareKeys) }

// CompareKeys returns strings.Compare(a.Key(), b.Key()) without building
// either key. Two distinct "<node>:<var>;" tokens are never prefixes of
// one another (each ends at its only ';'), so keys compare token by
// token, and a key that is a prefix of the other is the smaller.
func CompareKeys(a, b Assignment) int {
	for i := range min(len(a), len(b)) {
		if c := compareDecimal(int64(a[i].Node), int64(b[i].Node)); c != 0 {
			return c
		}
		if c := compareDecimal(int64(a[i].Var), int64(b[i].Var)); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// pow10[i] is 10^i; 10^19 is the largest power that fits in a uint64.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 10 * p[i-1]
	}
	return p
}()

// compareDecimal compares the decimal strings of x and y, each followed
// by a terminator that sorts after every digit (':' or ';' in a key):
// digit strings of one length compare as numbers, and a proper prefix
// sorts after its extensions ("1:" > "12:"). A '-' sorts before every
// digit, so negative numbers come first, ordered by their digits.
func compareDecimal(x, y int64) int {
	if (x < 0) != (y < 0) {
		return cmp.Compare(x, y)
	}
	ux, uy := uint64(x), uint64(y)
	if x < 0 {
		ux, uy = -ux, -uy
	}
	if ux == uy {
		return 0
	}
	dx, dy := decimalLen(ux), decimalLen(uy)
	switch {
	case dx < dy:
		if p := uy / pow10[dy-dx]; p != ux {
			return cmp.Compare(ux, p)
		}
		return 1
	case dx > dy:
		if p := ux / pow10[dx-dy]; p != uy {
			return cmp.Compare(p, uy)
		}
		return -1
	}
	return cmp.Compare(ux, uy)
}

// decimalLen returns the number of decimal digits of v: t below is
// ⌊log10 2^bitlen(v)⌋ (1233/4096 ≈ log10 2), which is the digit count
// less one, or two when v < 10^t.
func decimalLen(v uint64) int {
	t := bits.Len64(v) * 1233 >> 12
	if v < pow10[t] {
		return max(t, 1)
	}
	return t + 1
}

// String renders the assignment as "{⟨X0:n1⟩, ⟨X1:n2⟩}".
func (a Assignment) String() string {
	parts := make([]string, len(a))
	for i, s := range a {
		parts[i] = s.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Valuation maps nodes to their annotation. It is the ν of the paper; the
// corresponding assignment α(ν) lists ⟨Z:n⟩ for every Z ∈ ν(n).
type Valuation map[NodeID]VarSet

// Assignment converts the valuation to its assignment form α(ν).
func (v Valuation) Assignment() Assignment {
	var out Assignment
	for n, set := range v {
		for _, z := range set.Vars() {
			out = append(out, Singleton{Var: z, Node: n})
		}
	}
	return out.Normalize()
}

// AssignmentValuation converts an assignment back to a valuation.
func AssignmentValuation(a Assignment) Valuation {
	v := Valuation{}
	for _, s := range a {
		v[s.Node] |= 1 << s.Var
	}
	return v
}
