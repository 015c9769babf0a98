package circuit

import "repro/internal/tree"

// Evaluator computes captured sets S(g) (Definition 3.1) by brute-force
// recursion with memoization. It materializes whole sets of assignments,
// so it is exponential in general; it exists as the ground truth the
// enumeration algorithms are tested against.
type Evaluator struct {
	memo map[*Box][]map[string]tree.Assignment
}

// NewEvaluator returns a fresh evaluator (memoization is per instance, so
// evaluate-then-update-then-evaluate must use a new one).
func NewEvaluator() *Evaluator {
	return &Evaluator{memo: map[*Box][]map[string]tree.Assignment{}}
}

// VarAssignment returns the single assignment captured by var gate v of
// box b: {⟨Z:n⟩ | Z ∈ Set}.
func (e *Evaluator) VarAssignment(b *Box, v int) tree.Assignment {
	var out tree.Assignment
	for _, z := range b.Vars[v].Set.Vars() {
		out = append(out, tree.Singleton{Var: z, Node: b.Node})
	}
	return out.Normalize()
}

// Times returns S of ×-gate t of box b: the relational product of the
// captured sets of its two child ∪-gates.
func (e *Evaluator) Times(b *Box, t int) map[string]tree.Assignment {
	g := b.Times[t]
	left := e.Union(b.Left, int(g.Left))
	right := e.Union(b.Right, int(g.Right))
	out := map[string]tree.Assignment{}
	for _, sl := range left {
		for _, sr := range right {
			merged := append(append(tree.Assignment{}, sl...), sr...).Normalize()
			out[merged.Key()] = merged
		}
	}
	return out
}

// Union returns S of ∪-gate u of box b.
func (e *Evaluator) Union(b *Box, u int) map[string]tree.Assignment {
	if sets, ok := e.memo[b]; ok && sets[u] != nil {
		return sets[u]
	}
	if _, ok := e.memo[b]; !ok {
		e.memo[b] = make([]map[string]tree.Assignment, len(b.Unions))
	}
	out := map[string]tree.Assignment{}
	// Mark before recursing: the circuit is acyclic, but this keeps the
	// memo table consistent if the same gate is requested re-entrantly.
	e.memo[b][u] = out
	for _, v := range b.UnionVars(u) {
		a := e.VarAssignment(b, int(v))
		out[a.Key()] = a
	}
	for _, t := range b.UnionTimes(u) {
		for k, a := range e.Times(b, int(t)) {
			out[k] = a
		}
	}
	for _, l := range b.UnionLeft(u) {
		for k, a := range e.Union(b.Left, int(l)) {
			out[k] = a
		}
	}
	for _, r := range b.UnionRight(u) {
		for k, a := range e.Union(b.Right, int(r)) {
			out[k] = a
		}
	}
	return out
}

// Gamma returns S(γ(n, q)) for the box b and state q: the empty set for
// ⊥, the set containing only the empty assignment for ⊤, and the ∪-gate's
// captured set otherwise.
func (e *Evaluator) Gamma(b *Box, q int) map[string]tree.Assignment {
	switch b.GammaKind[q] {
	case GammaBottom:
		return map[string]tree.Assignment{}
	case GammaTop:
		empty := tree.Assignment{}
		return map[string]tree.Assignment{empty.Key(): empty}
	default:
		return e.Union(b, int(b.GammaIdx[q]))
	}
}
