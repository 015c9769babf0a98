package engine

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/big"
	"sync"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/counting"
	"repro/internal/enumerate"
	"repro/internal/tree"
)

// Stats reports sizes of the preprocessed structures and cumulative
// update work, for the experiment harness. Counters are as of the
// snapshot's publication.
type Stats struct {
	TranslatedStates int // |Q′| after trimming (before homogenization)
	AutomatonStates  int // states of the homogenized binary TVA
	CircuitWidth     int
	Boxes            int
	UnionGates       int
	TimesGates       int
	VarGates         int
	TermHeight       int
	BoxesRebuilt     int // cumulative for this query, across all updates
	BoxesReused      int // trunk boxes served by signature-pruned reuse
	PathCopies       int // cumulative shared term work (see EngineStats)
	Rebalances       int // scapegoat rebuilds in the term
}

// Snapshot is one published version of the enumeration structure: the
// root of a frozen (box, index, counts) tree plus the accepting boxed
// set of the automaton on it, enumerated by the paper's algorithm
// (Algorithm 2 over the indexed box enumeration, Theorem 6.5). The
// only choice a reader makes is the registration-time unambiguity
// verdict (see DirectAccess). Everything reachable from a snapshot is
// immutable, so all methods are safe from any number of goroutines,
// and an in-flight enumeration is unaffected by updates applied to the
// engine after the snapshot was taken.
type Snapshot struct {
	root    *enumerate.IndexedBox
	gamma   bitset.Set
	emptyOK bool

	// count is the total derivation count at the root (Section 4
	// multiset remark), summed from the root wrapper's counts at
	// publication; unambiguous records the registration-time
	// tva.Unambiguous verdict that makes it an exact answer count.
	count       *big.Int
	unambiguous bool

	version          uint64
	termHeight       int
	boxesRebuilt     int
	boxesReused      int
	pathCopies       int
	rebalances       int
	translatedStates int

	// builder is the pipeline's circuit builder, read only through
	// Program, RootAccepting and its automaton, which touch none of its
	// scratch; Validate recomputes γ with it.
	builder *circuit.Builder

	statsOnce sync.Once
	stats     Stats

	minSize, maxSize sizeAggregate

	drainOnce  sync.Once
	drainCount int

	// answers is the keyed delta diff's record of this snapshot's
	// answers (delta.go), set by the writer under e.mu before the
	// snapshot is published and read only by the next publication's
	// diff; nil when no diff has drained the snapshot.
	answers *answerSet

	// reads points at the owning engine's read-path counters
	// (answers enumerated, parallel drains); nil on zero-value snapshots.
	reads *readCounters
}

// Version returns the publication sequence number of the snapshot
// (monotonically increasing per engine, starting at 1).
func (s *Snapshot) Version() uint64 { return s.version }

// Results enumerates the satisfying assignments of the query on this
// version of the input, without duplicates, with delay O(|S|·poly(|Q|))
// independent of |T|. The iteration may be abandoned, restarted, and
// run concurrently with engine updates and with other iterations of the
// same snapshot. Each iteration runs one pooled enumeration cursor
// (enumerate.Ropes), whose scratch is recycled frame by frame and goes
// back to the pool when the iteration ends or is abandoned. Each
// yielded assignment is a fresh slice the caller owns: in steady state
// the one allocation per answer, besides the ropes the cursor carves
// 256 to a slab.
func (s *Snapshot) Results() iter.Seq[tree.Assignment] {
	inner := enumerate.Assignments(s.root, s.gamma, s.emptyOK, enumerate.ModeIndexed)
	if s.reads == nil {
		return inner
	}
	return func(yield func(tree.Assignment) bool) {
		n := 0
		defer func() { s.noteAnswers(n) }()
		for a := range inner {
			n++
			if !yield(a) {
				return
			}
		}
	}
}

// Ropes is Results without materialization: assignments as shared ropes
// (nil = the empty assignment). The cursor's scratch is recycled as for
// Results; the ropes are persistent and may be kept and materialized
// after the iteration.
func (s *Snapshot) Ropes() iter.Seq[*enumerate.Rope] {
	return enumerate.Ropes(s.root, s.gamma, s.emptyOK, enumerate.ModeIndexed)
}

// Count returns the number of elements Results enumerates. When the
// snapshot supports direct access (see DirectAccess) this is an
// O(poly(|Q|)) read of the maintained derivation count — no enumeration
// happens, regardless of the answer-set size; otherwise it counts the
// enumerated ropes once (cached per snapshot, no answer is
// materialized). Counts above MaxInt saturate; CountBig is exact.
func (s *Snapshot) Count() int {
	if s.DirectAccess() {
		if !s.count.IsInt64() {
			return math.MaxInt
		}
		c := s.count.Int64()
		if c > math.MaxInt {
			return math.MaxInt
		}
		return int(c)
	}
	return s.drain()
}

// CountBig is Count without the int saturation.
func (s *Snapshot) CountBig() *big.Int {
	if s.DirectAccess() {
		return new(big.Int).Set(s.count)
	}
	return big.NewInt(int64(s.drain()))
}

// drain counts by enumeration, once per snapshot.
func (s *Snapshot) drain() int {
	s.drainOnce.Do(func() {
		for range s.Ropes() {
			s.drainCount++
		}
		s.noteAnswers(s.drainCount)
	})
	return s.drainCount
}

// setAnswers attaches the keyed diff's answer record and seeds the
// drain count with its length, so Count does not enumerate the answers
// again. Writer-side, before publication.
func (s *Snapshot) setAnswers(a *answerSet) {
	s.answers = a
	s.drainOnce.Do(func() { s.drainCount = a.len() })
}

// Derivations returns the number of circuit derivations of the query on
// this version: each satisfying assignment counted once per automaton
// run witnessing it (the paper's Section 4 multiset semantics, with
// empty-completion runs collapsed by homogenization). It is maintained
// under updates on the frozen wrappers (IndexedBox.Counts) and read
// here in O(1). For unambiguous automata — reported by DirectAccess — it equals
// the number of satisfying assignments.
func (s *Snapshot) Derivations() *big.Int {
	if s.count == nil {
		return big.NewInt(0) // zero-value snapshots of tests
	}
	return new(big.Int).Set(s.count)
}

// MinResultSize returns the smallest |S| over the satisfying
// assignments S, and false if there are none: one fold of the tropical
// (min, +) semiring (counting.MinSize) over the frozen circuit, with no
// enumeration. The fold visits every box, O(|T|·poly(|Q|)), and runs
// once per snapshot, on the first call; later calls read the cached
// value.
func (s *Snapshot) MinResultSize() (int, bool) { return s.minSize.get(s, counting.MinSize{}) }

// MaxResultSize returns the largest |S| over the satisfying assignments,
// and false if there are none (counting.MaxSize; cost and caching as
// MinResultSize).
func (s *Snapshot) MaxResultSize() (int, bool) { return s.maxSize.get(s, counting.MaxSize{}) }

// sizeAggregate caches one size-semiring fold of a snapshot.
type sizeAggregate struct {
	once sync.Once
	v    int
	ok   bool
}

// get folds the size semiring sr over the accepting root gates of s
// the first time, and returns the cached result.
func (a *sizeAggregate) get(s *Snapshot, sr counting.Semiring[int64]) (int, bool) {
	a.once.Do(func() {
		root, gamma, emptyOK := s.Accepting()
		if v := counting.NewEvaluator(sr).Gamma(root, gamma, emptyOK); !counting.IsInfinite(v) {
			a.v, a.ok = int(v), true
		}
	})
	return a.v, a.ok
}

// DirectAccess reports whether Count, At and Page take the fast paths
// whose cost is independent of the answer-set size: true when the
// maintained derivation counts are exact ranks for Results' order,
// which holds when the query automaton passed the registration-time
// unambiguity check (tva.Unambiguous). When false, the same methods
// stay correct but enumerate: Count counts the answers once per
// snapshot, and At and Page skip the ranks before the offset.
func (s *Snapshot) DirectAccess() bool { return s.count != nil && s.unambiguous }

// At returns the j-th element (0-based) of Results, in Results' order:
// on direct-access snapshots one count-guided descent in
// O(log|T|·poly(|Q|)), so "answer 10⁶" costs the same as "answer 0";
// otherwise the enumeration skips the first j answers without
// materializing them. Returns an error iff j is out of range.
func (s *Snapshot) At(j int) (tree.Assignment, error) {
	if j >= 0 {
		if a := s.fillFrom(j, 1, nil); len(a) == 1 {
			return a[0], nil
		}
	}
	return nil, fmt.Errorf("engine: rank %d out of range (count %s)", j, s.CountBig())
}

// materialize turns an enumerated rope into an assignment (nil is the
// empty assignment).
func materialize(r *enumerate.Rope) tree.Assignment {
	if r == nil {
		return tree.Assignment{}
	}
	return r.Materialize()
}

// fillFrom is the one ranked stream behind At, Page, ParallelAll and the
// Chunks workers: it appends to dst at most limit Results elements from
// rank offset on, and returns dst — short only past the end. A
// direct-access snapshot seeks to the offset with one count-guided
// descent (enumerate.Descender.RopesFromInt) and streams from there,
// O(log|T|·poly(|Q|)) + limit·delay. Any other snapshot — or a seek
// that fails on a count inconsistency — runs the enumeration from rank
// 0 and skips offset ropes without materializing them. Each call holds
// its own pooled cursor, so the bulk readers call it concurrently.
func (s *Snapshot) fillFrom(offset, limit int, dst []tree.Assignment) []tree.Assignment {
	var ropes iter.Seq[*enumerate.Rope]
	skip := offset
	if s.DirectAccess() {
		d := enumerate.GetDescender()
		defer enumerate.PutDescender(d)
		seek, err := d.RopesFromInt(s.root, s.gamma, s.emptyOK, enumerate.ModeIndexed, offset)
		if errors.Is(err, enumerate.ErrRankRange) {
			return dst
		}
		if err == nil {
			ropes, skip = seek, 0
		}
	}
	if ropes == nil {
		ropes = s.Ropes()
	}
	n := 0 // ropes enumerated, skipped ones included
	for r := range ropes {
		if n++; n <= skip {
			continue
		}
		dst = append(dst, materialize(r))
		if n-skip == limit {
			break
		}
	}
	s.noteAnswers(n)
	return dst
}

// Page returns Results elements [offset, offset+limit) in Results'
// order — the stateless pagination primitive: no cursor, no per-client
// enumeration state, and under updates each page is simply served from
// whichever immutable snapshot the caller holds. Short (or empty) pages
// mean the range ran past the end. On direct-access snapshots a page is
// one seek to offset plus limit enumeration steps,
// O(log|T|·poly(|Q|)) + limit·delay, independent of offset; otherwise
// offset skipped and limit materialized enumeration steps.
func (s *Snapshot) Page(offset, limit int) []tree.Assignment {
	if offset < 0 || limit <= 0 {
		return nil
	}
	var out []tree.Assignment
	if s.DirectAccess() {
		// Only here is the page size known up front; elsewhere the
		// caller's limit may be far beyond the answer count.
		limit = min(limit, s.Count()-offset)
		if limit <= 0 {
			return nil
		}
		out = make([]tree.Assignment, 0, limit)
	}
	return s.fillFrom(offset, limit, out)
}

// NonEmpty reports whether at least one satisfying assignment exists; by
// the delay bound it runs in time independent of |T|.
func (s *Snapshot) NonEmpty() bool {
	for range s.Results() {
		return true
	}
	return false
}

// All materializes every result in Results' order: one enumeration,
// O(|answers|·delay), preallocated from Count on direct-access
// snapshots. ParallelAll is the same sweep split across workers.
func (s *Snapshot) All() []tree.Assignment {
	var out []tree.Assignment
	if s.DirectAccess() {
		if n := s.Count(); n > 0 {
			out = make([]tree.Assignment, 0, n)
		}
	}
	for a := range s.Results() {
		out = append(out, a)
	}
	return out
}

// Accepting exposes the snapshot's root box together with its accepting
// boxed set and empty-assignment flag, for algebraic evaluators (package
// counting) that walk the frozen circuit directly.
func (s *Snapshot) Accepting() (*circuit.Box, bitset.Set, bool) {
	return s.root.Box, s.gamma, s.emptyOK
}

// Root returns the root of the snapshot's frozen wrapper tree.
func (s *Snapshot) Root() *enumerate.IndexedBox { return s.root }

// Stats reports structure sizes for this version. The circuit walk runs
// once, lazily, on first call (so publishing a snapshot stays O(log n)).
func (s *Snapshot) Stats() Stats {
	s.statsOnce.Do(func() {
		c := &circuit.Circuit{Root: s.root.Box}
		u, x, v := c.CountGates()
		s.stats = Stats{
			TranslatedStates: s.translatedStates,
			AutomatonStates:  s.builder.A.NumStates,
			CircuitWidth:     c.Width(),
			Boxes:            c.NumBoxes(),
			UnionGates:       u,
			TimesGates:       x,
			VarGates:         v,
			TermHeight:       s.termHeight,
			BoxesRebuilt:     s.boxesRebuilt,
			BoxesReused:      s.boxesReused,
			PathCopies:       s.pathCopies,
			Rebalances:       s.rebalances,
		}
	})
	return s.stats
}
