package circuit

import (
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/tree"
	"repro/internal/tva"
)

// This file implements the precompiled transition programs behind the
// builder hot path. A Program flattens one homogenized automaton's
// ι/δ relations — once — into the exact shape the per-box construction
// consumes:
//
//   - per leaf label, a complete leaf-box TEMPLATE: the gates of a leaf
//     box — γ vectors, var gates, ∪-gates, reverse wires — are
//     label-determined (the node lives in the box header), so LeafBox
//     degenerates to a header over the shared template. Labels whose
//     rules yield equal gates share one template, so "same template" is
//     a pointer compare (LeafReusable);
//   - per inner label, the transition triples as dense int32 rules,
//     deduplicated and split into 0-state and 1-state outputs, so
//     InnerBox runs two tight loops with no map lookups and no
//     per-transition OneStates test.
//
// Programs are immutable and shared: a process-wide cache keyed by the
// automaton's CONTENT (not pointer identity) hands the same *Program to
// every Builder over an equal automaton, so the many pipelines of a
// QuerySet engine — which each translate and homogenize their query
// afresh — compile the rule tables once instead of once per
// registration.

// Program is the precompiled transition program of one homogenized
// binary TVA. It is immutable after compileProgram returns; any number
// of Builders (on any goroutines) may share one.
type Program struct {
	numStates int
	oneStates bitset.Set
	leaf      map[tree.Label]leafEntry
	inner     map[tree.Label]*innerProgram
	// emptyLeaf serves labels with no initial rules: every state ⊥.
	emptyLeaf *Gates

	// The canonical rule sequences the program was compiled from, kept
	// for the content-equality check of the cache (gate order follows
	// rule order, so order is part of the identity).
	init  []tva.InitRule
	delta []tva.Triple
	fp    uint64

	// cacheUsed is the clock-eviction reference bit: set on every cache
	// hit, cleared by the sweeping hand, evicted when found clear.
	// Guarded by programCache.mu — it is cache metadata, not program
	// content, so the program itself stays immutable and shareable.
	cacheUsed bool
}

// Fingerprint returns the 64-bit content fingerprint of the automaton's
// canonical rule sequences — the key the process-wide program cache
// hashes by, and the content key the engine's multi-query optimizer
// keys shared pipelines by. Equal content always yields equal
// fingerprints; callers that must not alias distinct content on a hash
// collision verify with ContentEqual.
func (p *Program) Fingerprint() uint64 { return p.fp }

// ContentEqual reports whether two programs were compiled from the same
// canonical rule content (states, 1-states, ι and δ sequences, order
// included). Content-equal programs build gate-for-gate identical boxes
// over any term, which is the soundness condition for sharing one
// enumeration pipeline across registrations.
func (p *Program) ContentEqual(q *Program) bool {
	return p == q || equalProgram(p, q)
}

// leafEntry is a leaf label's template (shared with every label whose
// rules yield equal gates) and the program's own copy of the label
// string, which leaf boxes carry so they retain no per-box string.
type leafEntry struct {
	label tree.Label
	gates *Gates
}

// innerRule is one δ triple in dense form.
type innerRule struct{ left, right, out int32 }

// innerProgram is the per-label transition program of inner boxes.
type innerProgram struct {
	one  []innerRule // triples into 1-states: build ∪-gate inputs
	zero []innerRule // triples into 0-states: γ is ⊤ iff both children ⊤
}

// leafFor returns the template entry for a leaf label.
func (p *Program) leafFor(label tree.Label) leafEntry {
	if lt, ok := p.leaf[label]; ok {
		return lt
	}
	return leafEntry{label: label, gates: p.emptyLeaf}
}

// LeafGates returns the shared gate data every leaf box of the label
// points at.
func (p *Program) LeafGates(label tree.Label) *Gates { return p.leafFor(label).gates }

// canonicalRules returns the automaton's rule sequences with exact
// duplicates dropped, preserving first-occurrence order (the old
// map-based construction deduplicated implicitly; the flat loops rely on
// the program being duplicate-free, and gate order follows rule order).
func canonicalRules(a *tva.Binary) (init []tva.InitRule, delta []tva.Triple) {
	initSeen := map[tva.InitRule]bool{}
	for _, r := range a.Init {
		if initSeen[r] {
			continue
		}
		initSeen[r] = true
		init = append(init, r)
	}
	deltaSeen := map[tva.Triple]bool{}
	for _, t := range a.Delta {
		if deltaSeen[t] {
			continue
		}
		deltaSeen[t] = true
		delta = append(delta, t)
	}
	return init, delta
}

// compileProgram flattens the automaton's canonical rules. The automaton
// must be homogenized (NewBuilder validates before compiling).
func compileProgram(a *tva.Binary, init []tva.InitRule, delta []tva.Triple, fp uint64) *Program {
	p := &Program{
		numStates: a.NumStates,
		oneStates: a.OneStates.Clone(),
		leaf:      map[tree.Label]leafEntry{},
		inner:     map[tree.Label]*innerProgram{},
		init:      init,
		delta:     delta,
		fp:        fp,
	}
	var templates []*Gates
	shared := func(g *Gates) *Gates {
		for _, t := range templates {
			if gatesEqual(t, g) {
				return t
			}
		}
		templates = append(templates, g)
		return g
	}
	p.emptyLeaf = shared(compileLeafTemplate(a, nil))
	for _, lt := range groupInitLabels(p.init) {
		p.leaf[lt.label] = leafEntry{label: lt.label, gates: shared(compileLeafTemplate(a, lt.rules))}
	}
	for _, t := range p.delta {
		ip := p.inner[t.Label]
		if ip == nil {
			ip = &innerProgram{}
			p.inner[t.Label] = ip
		}
		r := innerRule{left: int32(t.Left), right: int32(t.Right), out: int32(t.Out)}
		if a.OneStates.Has(int(t.Out)) {
			ip.one = append(ip.one, r)
		} else {
			ip.zero = append(ip.zero, r)
		}
	}
	return p
}

// labelRules groups initial rules per label, preserving rule order.
type labelRules struct {
	label tree.Label
	rules []tva.InitRule
}

func groupInitLabels(init []tva.InitRule) []labelRules {
	idx := map[tree.Label]int{}
	var out []labelRules
	for _, r := range init {
		i, ok := idx[r.Label]
		if !ok {
			i = len(out)
			idx[r.Label] = i
			out = append(out, labelRules{label: r.Label})
		}
		out[i].rules = append(out[i].rules, r)
	}
	return out
}

// compileLeafTemplate builds the leaf-box gates from one label's
// initial rules, following the leaf case of Lemma 3.7 (var gates in
// first-use order, ∪-gate inputs sorted ascending, ∪-gates in state
// order).
func compileLeafTemplate(a *tva.Binary, rules []tva.InitRule) *Gates {
	nq := a.NumStates
	kind := make([]GammaKind, nq)
	idx := make([]int32, nq)
	for i := range idx {
		idx[i] = -1
	}
	var vars []VarGate
	var unions []UnionInputs
	varIdx := map[tree.VarSet]int32{}
	ruleSets := make([][]tree.VarSet, nq)
	emptyRule := make([]bool, nq)
	for _, r := range rules {
		if r.Set.Empty() {
			emptyRule[r.State] = true
		} else {
			ruleSets[r.State] = append(ruleSets[r.State], r.Set)
		}
	}
	for q := 0; q < nq; q++ {
		if !a.OneStates.Has(q) {
			// 0-state: ⊤ iff the empty annotation reaches q here.
			if emptyRule[q] {
				kind[q] = GammaTop
			}
			continue
		}
		sets := ruleSets[q]
		if len(sets) == 0 {
			continue
		}
		var in []int32
		seen := map[tree.VarSet]bool{}
		for _, y := range sets {
			if seen[y] {
				continue
			}
			seen[y] = true
			vi, ok := varIdx[y]
			if !ok {
				vi = int32(len(vars))
				varIdx[y] = vi
				vars = append(vars, VarGate{Set: y})
			}
			in = append(in, vi)
		}
		slices.Sort(in)
		kind[q], idx[q] = GammaUnion, int32(len(unions))
		unions = append(unions, UnionInputs{Vars: in})
	}
	g := &Gates{}
	layout(g, kind, idx, vars, nil, unions, nil, nil)
	return g
}

// ---- structural signatures ----

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type sigHash uint64

func (h *sigHash) mix(x uint64) {
	v := uint64(*h) ^ x
	*h = sigHash(v * fnvPrime)
}

// computeSig hashes the gate structure of a box: the γ vectors, the
// var-gate sets, the ×-gates and the ∪-gate input lists. The node ID,
// the label and the child pointers are deliberately EXCLUDED — the
// signature captures exactly "would this box behave identically over the
// same children", which is what signature-pruned repair compares (two
// labels the automaton does not distinguish yield the same signature).
func computeSig(g *Gates) uint64 {
	h := sigHash(fnvOffset)
	h.mix(uint64(len(g.GammaKind)))
	for q, k := range g.GammaKind {
		if k != GammaBottom {
			h.mix(uint64(q)<<8 | uint64(k))
			h.mix(uint64(uint32(g.GammaIdx[q])))
		}
	}
	h.mix(uint64(len(g.Vars)))
	for _, v := range g.Vars {
		h.mix(uint64(v.Set))
	}
	h.mix(uint64(len(g.Times)))
	for _, t := range g.Times {
		h.mix(uint64(uint32(t.Left))<<32 | uint64(uint32(t.Right)))
	}
	h.mix(uint64(len(g.Unions)))
	for u := range g.Unions {
		for _, lst := range [][]int32{g.UnionVars(u), g.UnionTimes(u), g.UnionLeft(u), g.UnionRight(u)} {
			h.mix(uint64(len(lst)))
			for _, x := range lst {
				h.mix(uint64(uint32(x)))
			}
		}
	}
	return uint64(h)
}

// ShapeEqual reports whether two boxes have identical local gate
// structure: same γ vectors, var-gate sets, ×-gates and ∪-gate wiring.
// Node IDs, labels and child pointers are not compared (see computeSig).
// It is the exact relation Sig approximates. The engine's runtime reuse
// tests are LeafReusable (leaves: the label's shared template) and
// pointer-equal children + unchanged label (inner boxes); both imply
// ShapeEqual, which is what the pruned-vs-full differential suite checks
// box for box over whole published circuits.
func ShapeEqual(a, b *Box) bool { return gatesEqual(a.Gates, b.Gates) }

// gatesEqual is ShapeEqual on gate data.
func gatesEqual(a, b *Gates) bool {
	if a == b {
		return true
	}
	if !slices.Equal(a.GammaKind, b.GammaKind) || !slices.Equal(a.GammaIdx, b.GammaIdx) ||
		!slices.Equal(a.Vars, b.Vars) || !slices.Equal(a.Times, b.Times) || len(a.Unions) != len(b.Unions) {
		return false
	}
	for u := range a.Unions {
		if !slices.Equal(a.UnionVars(u), b.UnionVars(u)) || !slices.Equal(a.UnionTimes(u), b.UnionTimes(u)) ||
			!slices.Equal(a.UnionLeft(u), b.UnionLeft(u)) || !slices.Equal(a.UnionRight(u), b.UnionRight(u)) {
			return false
		}
	}
	return true
}

// LeafReusable reports whether an existing box can serve as the leaf box
// for (label, node): exactly when LeafBox(label, node) would build a box
// with identical gates. Labels with equal gates share one template, so
// this is a pointer compare plus the node check. The dynamic engine's
// signature-pruned repair uses it to keep the old (box, index, counts)
// unit across a relabel that does not change the leaf's gates — the
// common case for labels the query does not distinguish — without
// building anything.
func (bd *Builder) LeafReusable(b *Box, label tree.Label, node tree.NodeID) bool {
	return b != nil && b.IsLeaf() && b.Node == node && b.Gates == bd.prog.leafFor(label).gates
}

// ---- program cache ----

// programCache shares compiled programs across Builders by automaton
// CONTENT: two automata with identical (states, 1-states, ι, δ)
// sequences map to the same *Program even when they are distinct
// objects, which is what lets every pipeline of a QuerySet engine (each
// registration translates and homogenizes afresh) skip recompilation.
//
// The cache is BOUNDED under register/unregister churn: at most
// programCacheCap entries, enforced by coarse CLOCK eviction (ring is
// the clock, each entry carries a reference bit set on hit; the
// sweeping hand clears bits until it finds one already clear and evicts
// that entry). A long-running process cycling through millions of
// distinct one-off queries therefore holds a fixed-size working set of
// hot programs instead of growing without bound, while automata beyond
// the cap still compile — they just displace the coldest entry.
// Evicted programs stay fully usable by the builders already holding
// them; only future lookups recompile.
var programCache struct {
	mu   sync.Mutex
	m    map[uint64][]*Program
	ring []*Program // every cached entry, in clock order
	hand int        // next ring slot the eviction sweep examines
}

const programCacheCap = 256

// ProgramCacheSize returns the current number of cached compiled
// programs (process-wide; at most ProgramCacheCap). Exposed for the
// engine's stats surface and the cache-churn tests.
func ProgramCacheSize() int {
	programCache.mu.Lock()
	defer programCache.mu.Unlock()
	return len(programCache.ring)
}

// ProgramCacheCap is the entry bound of the process-wide program cache.
func ProgramCacheCap() int { return programCacheCap }

// evictProgramLocked frees one ring slot by the clock sweep: hit
// entries get a second chance (bit cleared, hand advances), the first
// clear entry found is removed from both the ring and the fingerprint
// map. Terminates in at most two sweeps. Callers hold programCache.mu
// with a nonempty ring.
func evictProgramLocked() {
	for {
		victim := programCache.ring[programCache.hand]
		if victim.cacheUsed {
			victim.cacheUsed = false
			programCache.hand = (programCache.hand + 1) % len(programCache.ring)
			continue
		}
		chain := programCache.m[victim.fp]
		i := slices.Index(chain, victim)
		chain = slices.Delete(chain, i, i+1)
		if len(chain) == 0 {
			delete(programCache.m, victim.fp)
		} else {
			programCache.m[victim.fp] = chain
		}
		last := len(programCache.ring) - 1
		programCache.ring[programCache.hand] = programCache.ring[last]
		programCache.ring[last] = nil
		programCache.ring = programCache.ring[:last]
		if programCache.hand >= len(programCache.ring) {
			programCache.hand = 0
		}
		return
	}
}

func fingerprint(numStates int, one bitset.Set, init []tva.InitRule, delta []tva.Triple) uint64 {
	h := sigHash(fnvOffset)
	h.mix(uint64(numStates))
	one.ForEach(func(q int) bool {
		h.mix(uint64(q) | 1<<32)
		return true
	})
	h.mix(uint64(len(init)))
	for _, r := range init {
		mixString(&h, string(r.Label))
		h.mix(uint64(r.Set))
		h.mix(uint64(r.State))
	}
	h.mix(uint64(len(delta)))
	for _, t := range delta {
		mixString(&h, string(t.Label))
		h.mix(uint64(t.Left)<<42 | uint64(t.Right)<<21 | uint64(t.Out))
	}
	return uint64(h)
}

func mixString(h *sigHash, s string) {
	h.mix(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.mix(uint64(s[i]))
	}
}

// equalProgram reports whether the cached program was compiled from the
// same rule content the candidate program was.
func equalProgram(a, b *Program) bool {
	if a.numStates != b.numStates || !a.oneStates.Equal(b.oneStates) ||
		len(a.init) != len(b.init) || len(a.delta) != len(b.delta) {
		return false
	}
	for i := range a.init {
		if a.init[i] != b.init[i] {
			return false
		}
	}
	for i := range a.delta {
		if a.delta[i] != b.delta[i] {
			return false
		}
	}
	return true
}

// programFor returns the shared program for the automaton, compiling and
// caching it on first sight of this rule content.
func programFor(a *tva.Binary) *Program {
	init, delta := canonicalRules(a)
	fp := fingerprint(a.NumStates, a.OneStates, init, delta)
	probe := &Program{numStates: a.NumStates, oneStates: a.OneStates, init: init, delta: delta}

	programCache.mu.Lock()
	if programCache.m == nil {
		programCache.m = map[uint64][]*Program{}
	}
	for _, cached := range programCache.m[fp] {
		if equalProgram(cached, probe) {
			cached.cacheUsed = true
			programCache.mu.Unlock()
			return cached
		}
	}
	programCache.mu.Unlock()

	// Compile off the lock (template building is the expensive part);
	// re-check before inserting so concurrent compilers converge on one
	// shared program.
	p := compileProgram(a, init, delta, fp)
	programCache.mu.Lock()
	defer programCache.mu.Unlock()
	for _, cached := range programCache.m[fp] {
		if equalProgram(cached, p) {
			cached.cacheUsed = true
			return cached
		}
	}
	if len(programCache.ring) >= programCacheCap {
		evictProgramLocked()
	}
	p.cacheUsed = true
	programCache.m[fp] = append(programCache.m[fp], p)
	programCache.ring = append(programCache.ring, p)
	return p
}

// Program returns the builder's shared transition program; two builders
// over content-equal automata report the same *Program (the cache above).
// Exposed for the sharing tests and for cache-aware diagnostics.
func (bd *Builder) Program() *Program { return bd.prog }
