// Package enumtrees is a reproduction of "Enumeration on Trees with
// Tractable Combined Complexity and Efficient Updates" (Amarilli,
// Bourhis, Mengel, Niewerth — PODS 2019): an update-aware enumeration
// engine for MSO queries on unranked trees and words.
//
// Given a query — a nondeterministic stepwise tree variable automaton, a
// word variable automaton, an MSO formula, or a spanner pattern — and a
// tree or word, the engine preprocesses in (quasi)linear time, then:
//
//   - enumerates all satisfying assignments without duplicates, with
//     delay independent of the input size (linear only in each produced
//     assignment; constant for first-order queries);
//   - supports leaf insertion, leaf deletion and relabeling in
//     logarithmic (amortized) time, after which enumeration restarts on
//     the updated input;
//   - stays polynomial in the query automaton even when it is
//     nondeterministic (the paper's combined-complexity contribution).
//
// The package is a facade over the internal packages that implement the
// paper layer by layer: see DESIGN.md for the map from lemmas and
// theorems to code, and `go run ./cmd/benchtables` for the measured
// reproduction of every claimed bound.
//
// # Quick start
//
// Every document is served by a query set: register a query, read its
// slice of each published snapshot, and edit through ApplyBatch — every
// edit is an Update, and one batch is one publication.
//
//	t, _ := enumtrees.ParseTree("(a (b) (a (b)))")
//	q := enumtrees.SelectLabel([]enumtrees.Label{"a", "b"}, "b", 0)
//	qs, id, _ := enumtrees.New(t, q, enumtrees.Options{})
//	for asg := range qs.Snapshot().Query(id).Results() {
//	    fmt.Println(asg) // {⟨X0:n1⟩}, {⟨X0:n3⟩}
//	}
//	m, ids, _ := qs.ApplyBatch([]enumtrees.Update{ // O(log n)
//	    {Op: enumtrees.OpInsertFirstChild, Node: t.Root.ID, Label: "b"},
//	})
//	fmt.Println(ids[0], m.Query(id).Count()) // 4 3: new node ID, answers
//
// # Concurrent readers and batched updates
//
// The query set is snapshot-isolated: the writer applies batched
// updates, readers take immutable snapshots lock-free and enumerate from
// them unaffected by concurrent edits.
//
//	snap := qs.Snapshot().Query(id) // lock-free, from any goroutine
//	go func() {
//	    for asg := range snap.Results() { use(asg) } // isolated
//	}()
//	qs.ApplyBatch([]enumtrees.Update{              // one publication
//	    {Op: enumtrees.OpRelabel, Node: 1, Label: "b"},
//	    {Op: enumtrees.OpInsertFirstChild, Node: 0, Label: "a"},
//	})
//
// # Structural edits
//
// Beyond the single-leaf edits of Definition 7.1, the engines accept
// STRUCTURAL updates that splice whole subterms: subtree delete, subtree
// move and subtree graft on trees, range move/insert/delete and concat
// on words. A move relocates the subtree (or letter range) as one shared
// piece — node IDs are preserved, the per-query repair cost is
// O(log n + boundary) regardless of the moved size, and the maintained
// term is rebalanced back into its logarithmic height budget by
// scapegoat rebuilding. Bulk construction of an n-leaf document is O(n).
//
//	qs.ApplyBatch([]enumtrees.Update{
//	    {Op: enumtrees.OpMoveSubtreeFirstChild, Node: sec, Dest: doc},
//	    {Op: enumtrees.OpDeleteSubtree, Node: appendix},
//	    {Op: enumtrees.OpInsertSubtreeRightSibling, Node: fig, Fragment: frag},
//	})
//	wqs.ApplyBatch([]enumtrees.Update{
//	    {Op: enumtrees.OpMoveRange, From: 0, K: 3, To: 8},
//	    {Op: enumtrees.OpConcat, Labels: []enumtrees.Label{"a", "b"}},
//	})
//
// # Counting and stateless pagination
//
// Snapshots also answer aggregates and ranked access without
// enumerating, via the counting semiring maintained alongside the
// index (Section 4 multiset remark): Count is an O(poly|Q|) lookup,
// and At/Page jump to a rank by count-guided descent — exact for
// unambiguous automata (Snapshot.DirectAccess). Otherwise a snapshot of
// a subscribed query copies ranks out of the answer record its delta
// diff drained, and any other snapshot falls back to enumeration
// transparently. A page seeks once to its offset and then streams:
// O(log|T|·poly|Q|) + limit·delay.
//
//	n := snap.Count()            // no enumeration
//	page := snap.Page(1000, 20)  // answers 1000..1019, stateless
//	mid, _ := snap.At(n / 2)
//
// # Parallel enumeration
//
// Because ranked access is stateless, bulk enumeration is
// embarrassingly parallel: Snapshot.ParallelAll(w) splits the rank
// range [0, Count()) across w workers, each seeking once to the start
// of its slice and streaming it with its own reusable scratch, and
// Snapshot.Chunks(w, size) streams the same partition back in
// enumeration order with bounded buffering. Both return exactly the
// Results() order on any snapshot (an answer record or a sharded drain
// covers ambiguous automata), and both are snapshot-isolated from
// concurrent updates.
//
//	all := snap.ParallelAll(0)         // 0 = all cores
//	for chunk := range snap.Chunks(4, 512) {
//	    use(chunk)                     // in enumeration order
//	}
//
// # Many standing queries on one document
//
// A QuerySet serves any number of standing queries over the same
// document from ONE update stream: the term/forest maintenance of each
// edit is paid once, shared by all queries, and each publication is a
// MultiSnapshot answering every query on the same version. Queries
// register and unregister at runtime; New is NewQuerySet plus one
// Register.
//
//	qs := enumtrees.NewQuerySet(t)
//	q1, _ := qs.Register(query1, enumtrees.Options{})
//	q2, _ := qs.Register(query2, enumtrees.Options{})
//	m, _, _ := qs.ApplyBatch(batch)   // one publication for all queries
//	for asg := range m.Query(q1).Results() { use(asg) }
//	for asg := range m.Query(q2).Results() { use(asg) }
//
// With many standing queries the per-query repair of each edit fans out
// across a bounded worker pool (the parallel write path; default
// GOMAXPROCS, see QuerySet.SetWorkers), and queries
// register without stalling the edit stream: the new query's structure
// is built off the writer's critical section against a pinned term
// version. QuerySet.Stats returns the immutable work counters (shared
// term work vs per-query repair) of the latest publication.
//
// Registrations of CONTENT-EQUAL queries are deduped by the multi-query
// optimizer: they share one refcounted pipeline, so k near-duplicate
// standing queries pay the repair of one (per-edit cost scales with
// Stats().Pipelines, not Queries). Options.NoDedupe opts a registration
// out; see EngineStats.RegistrationsDeduped.
//
// # Answer-delta streaming
//
// A registered query can be subscribed: each publication then pushes
// one Delta carrying exactly the answers the edit added and removed,
// computed in time proportional to the change rather than the answer
// set, so a standing monitor never re-reads what it already holds.
//
//	ch, _ := qs.Subscribe(q1)
//	first := <-ch                 // always a resync: the base answer set
//	for d := range ch {           // closed by Unregister
//	    apply(d.Removed, d.Added) // exact diff, contiguous by version
//	}
//
// The writer never blocks on a slow consumer: undelivered deltas
// coalesce (Delta.Coalesced), degrading to a snapshot resync past
// SetDeltaResyncLimit. See the Delta type and DESIGN.md §11.
package enumtrees

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/mso"
	"repro/internal/paths"
	"repro/internal/spanner"
	"repro/internal/tree"
	"repro/internal/tva"
)

// Core data types.
type (
	// Label is a node or letter label.
	Label = tree.Label
	// Var is a query variable index (at most 32 variables).
	Var = tree.Var
	// VarSet is a set of variables.
	VarSet = tree.VarSet
	// NodeID is a stable node (or letter) identifier.
	NodeID = tree.NodeID
	// Singleton is one ⟨variable : node⟩ pair of an assignment.
	Singleton = tree.Singleton
	// Assignment is a query result: a set of singletons.
	Assignment = tree.Assignment
	// Valuation maps nodes to the variables placed on them.
	Valuation = tree.Valuation
	// Tree is a mutable unranked labeled tree.
	Tree = tree.Unranked
	// Node is a node of a Tree.
	Node = tree.UNode
)

// NewTree creates a single-node tree.
func NewTree(rootLabel Label) *Tree { return tree.NewUnranked(rootLabel) }

// ParseTree parses the S-expression tree syntax, e.g. "(a (b) (c (d)))".
func ParseTree(s string) (*Tree, error) { return tree.ParseUnranked(s) }

// Queries as automata.
type (
	// TreeAutomaton is a stepwise tree variable automaton on unranked
	// trees (the paper's query formalism; may be nondeterministic).
	TreeAutomaton = tva.Unranked
	// WordAutomaton is a word variable automaton.
	WordAutomaton = tva.WVA
	// InitRule is an element of a TreeAutomaton's initial relation.
	InitRule = tva.InitRule
	// StepTriple is an element of a TreeAutomaton's transition relation.
	StepTriple = tva.StepTriple
	// State is an automaton state.
	State = tva.State
)

// Ready-made example queries.
var (
	// SelectLabel selects one node with a given label.
	SelectLabel = tva.SelectLabel
	// MarkedAncestor is the Theorem 9.2 query: special nodes with a
	// marked proper ancestor.
	MarkedAncestor = tva.MarkedAncestor
)

// DescendantAtDepth returns the query selecting (in variable x) the
// nodes with a witness-labeled descendant exactly k >= 1 edges below
// them: the combined-complexity family of experiment E5, whose
// automaton has O(k) states while its determinization has Θ(2^k). It
// returns an error for k < 1.
func DescendantAtDepth(alphabet []Label, witness Label, k int, x Var) (*TreeAutomaton, error) {
	if k < 1 {
		return nil, fmt.Errorf("enumtrees: DescendantAtDepth needs depth k >= 1, got %d", k)
	}
	return tva.DescendantAtDepth(alphabet, witness, k, x), nil
}

// Options configures a registered query.
type Options = engine.Options

// New preprocesses a tree into a QuerySet and registers q as its first
// standing query (Theorem 8.1). Edits go through ApplyBatch; the query's
// answers are read from its slice of each publication,
// Snapshot().Query(id).
func New(t *Tree, q *TreeAutomaton, opts Options) (*QuerySet, QueryID, error) {
	qs := NewQuerySet(t)
	id, err := qs.Register(q, opts)
	if err != nil {
		return nil, 0, err
	}
	return qs, id, nil
}

// NewWord preprocesses a word into a WordQuerySet and registers q as its
// first standing query (Theorem 8.5).
func NewWord(letters []Label, q *WordAutomaton, opts Options) (*WordQuerySet, QueryID, error) {
	qs, err := NewWordQuerySet(letters)
	if err != nil {
		return nil, 0, err
	}
	id, err := qs.Register(q, opts)
	if err != nil {
		return nil, 0, err
	}
	return qs, id, nil
}

// Snapshot-isolated engine API (see the package comment's second
// example). The engine separates one writer from any number of lock-free
// readers: every update publishes a fresh immutable Snapshot while older
// snapshots — including in-flight enumerations from them — stay valid.
type (
	// Stats describes one query's preprocessed structure sizes and
	// cumulative update work (Snapshot.Stats).
	Stats = engine.Stats
	// Snapshot is one immutable published version of one query's
	// structure.
	Snapshot = engine.Snapshot
	// Update is one edit of a batch for QuerySet.ApplyBatch /
	// WordQuerySet.ApplyBatch.
	Update = engine.Update
	// UpdateOp identifies the operation of an Update.
	UpdateOp = engine.UpdateOp
)

// Multi-query engine API: one document, one update stream, many standing
// queries. The term/forest work of every edit is shared across all
// registered queries; only the logarithmic box/index repair scales with
// the query count. Queries register and unregister at runtime, and each
// publication is a MultiSnapshot — a consistent version of EVERY
// standing query, taken with one atomic load.
//
//	qs := enumtrees.NewQuerySet(t)
//	figs, _ := qs.Register(figQuery, enumtrees.Options{})
//	secs, _ := qs.Register(secQuery, enumtrees.Options{})
//	m, _, _ := qs.ApplyBatch([]enumtrees.Update{
//	    {Op: enumtrees.OpRelabel, Node: 3, Label: "sec"},
//	})                                  // ONE publication for both queries
//	for a := range m.Query(figs).Results() { ... }
//	for a := range m.Query(secs).Results() { ... }
type (
	// QuerySet is the multi-query tree engine.
	QuerySet = engine.TreeSet
	// WordQuerySet is the multi-query word engine.
	WordQuerySet = engine.WordSet
	// QueryID identifies a registered query within a QuerySet.
	QueryID = engine.QueryID
	// MultiSnapshot is one published version of every standing query.
	MultiSnapshot = engine.MultiSnapshot
	// EngineStats is one immutable reading of an engine's cumulative
	// work counters (QuerySet.Stats / WordQuerySet.Stats): shared term
	// work vs per-query repair, safe to read concurrently with the
	// parallel write path.
	EngineStats = engine.EngineStats
	// Delta is one push notification of a standing query's answer
	// change, delivered on the channel returned by Subscribe
	// (QuerySet.Subscribe / WordQuerySet.Subscribe):
	// the publication version plus the answers added and removed, so a
	// monitor pays per edit for the CHANGE, not a full re-read. The
	// first Delta of a subscription carries a Resync snapshot as the
	// base; consecutive deltas are coalesced (Coalesced flag) when the
	// consumer falls behind, degrading to a fresh Resync past the
	// engine's limit. See DESIGN.md §11.
	Delta = engine.Delta
)

// InvalidNode is the sentinel NodeID meaning "no node" (unapplied batch
// positions, not-yet-found searches). Real IDs are never negative.
const InvalidNode = tree.InvalidNode

// NewQuerySet preprocesses a tree into a multi-query engine with no
// queries registered yet; add standing queries with Register.
func NewQuerySet(t *Tree) *QuerySet { return engine.NewTreeSet(t) }

// NewWordQuerySet preprocesses a word into a multi-query engine.
func NewWordQuerySet(letters []Label) (*WordQuerySet, error) {
	return engine.NewWordSet(letters)
}

// Batch update operations.
const (
	// OpRelabel replaces a node's (or letter's) label.
	OpRelabel = engine.OpRelabel
	// OpDelete removes a tree leaf or word letter.
	OpDelete = engine.OpDelete
	// OpInsertFirstChild inserts a new first child (trees).
	OpInsertFirstChild = engine.OpInsertFirstChild
	// OpInsertRightSibling inserts a new right sibling (trees).
	OpInsertRightSibling = engine.OpInsertRightSibling
	// OpInsertAfter inserts a letter after the given one (words).
	OpInsertAfter = engine.OpInsertAfter
	// OpInsertBefore inserts a letter before the given one (words).
	OpInsertBefore = engine.OpInsertBefore

	// Structural edits: whole subtrees (trees) and letter ranges (words)
	// in one O(log n + boundary) splice — see DESIGN.md §10.

	// OpDeleteSubtree removes the whole subtree of Node (trees).
	OpDeleteSubtree = engine.OpDeleteSubtree
	// OpMoveSubtreeFirstChild relocates the subtree of Node to be the
	// first child subtree of Dest, preserving node IDs (trees).
	OpMoveSubtreeFirstChild = engine.OpMoveSubtreeFirstChild
	// OpMoveSubtreeRightSibling relocates the subtree of Node to be the
	// right-sibling subtree of Dest, preserving node IDs (trees).
	OpMoveSubtreeRightSibling = engine.OpMoveSubtreeRightSibling
	// OpInsertSubtreeFirstChild grafts a copy of Fragment as the first
	// child subtree of Node (trees).
	OpInsertSubtreeFirstChild = engine.OpInsertSubtreeFirstChild
	// OpInsertSubtreeRightSibling grafts a copy of Fragment as the
	// right-sibling subtree of Node (trees).
	OpInsertSubtreeRightSibling = engine.OpInsertSubtreeRightSibling
	// OpMoveRange moves the K letters at position From after position To
	// of the remaining word, To = -1 prepending (words).
	OpMoveRange = engine.OpMoveRange
	// OpInsertRange inserts Labels at position From (words).
	OpInsertRange = engine.OpInsertRange
	// OpDeleteRange removes the K letters at position From (words).
	OpDeleteRange = engine.OpDeleteRange
	// OpConcat appends Labels at the end of the word (words).
	OpConcat = engine.OpConcat
)

// MSO formulas (Corollaries 8.2 and 8.3).
type (
	// Formula is an MSO formula over unranked trees.
	Formula = mso.Formula
	// True is ⊤.
	True = mso.TrueF
	// False is ⊥.
	False = mso.FalseF
	// Subset is X ⊆ Y.
	Subset = mso.Subset
	// Sing asserts X is a singleton.
	Sing = mso.Singleton
	// HasLabel asserts every X-node has a label.
	HasLabel = mso.HasLabel
	// Child relates singleton X to a child Y.
	Child = mso.Child
	// NextSibling relates singleton X to its right neighbor Y.
	NextSibling = mso.NextSibling
	// Root asserts singleton X is the root.
	Root = mso.Root
	// Leaf asserts singleton X is a leaf.
	Leaf = mso.Leaf
	// Descendant relates singleton X to a proper descendant Y.
	Descendant = mso.Descendant
	// And is conjunction.
	And = mso.And
	// Or is disjunction.
	Or = mso.Or
	// Not is negation.
	Not = mso.Not
	// Exists is second-order existential quantification.
	Exists = mso.Exists
)

// MSO helper constructors.
var (
	// Conj conjoins formulas.
	Conj = mso.Conj
	// Disj disjoins formulas.
	Disj = mso.Disj
	// Forall is universal quantification.
	Forall = mso.Forall
	// Implies is implication.
	Implies = mso.Implies
)

// CompileMSO compiles an MSO formula to a tree automaton
// (Thatcher-Wright; can be expensive in the formula, as it must be).
func CompileMSO(f Formula, alphabet []Label) (*TreeAutomaton, error) {
	return mso.Compile(f, alphabet)
}

// CompileMSOFirstOrder compiles a formula whose listed variables are
// first-order (singleton-constrained): the constant-delay case of
// Corollary 8.3.
func CompileMSOFirstOrder(f Formula, alphabet []Label, foVars ...Var) (*TreeAutomaton, error) {
	return mso.CompileFO(f, alphabet, foVars...)
}

// Spanner patterns over words (Theorem 8.5 applications).
type (
	// Pattern is a regex-like pattern with captures.
	Pattern = spanner.Pattern
	// Lit matches one letter.
	Lit = spanner.Lit
	// AnyLetter matches any letter.
	AnyLetter = spanner.Any
	// SeqP concatenates patterns.
	SeqP = spanner.Seq
	// AltP alternates patterns.
	AltP = spanner.Alt
	// StarP is Kleene star.
	StarP = spanner.Star
	// PlusP is one-or-more.
	PlusP = spanner.Plus
	// OptP is zero-or-one.
	OptP = spanner.Opt
	// Capture binds every matched position to a variable.
	Capture = spanner.Capture
)

// Spanner helpers.
var (
	// Cat concatenates patterns.
	Cat = spanner.Cat
	// OrP alternates patterns.
	OrP = spanner.Or
	// Contains matches the pattern anywhere in the word.
	Contains = spanner.Contains
	// TextLabels converts a string to one label per rune.
	TextLabels = spanner.TextLabels
	// ByteAlphabet collects the runes of sample strings as an alphabet.
	ByteAlphabet = spanner.ByteAlphabet
	// Spans groups an assignment by capture variable.
	Spans = spanner.Spans
)

// CompilePattern compiles a spanner pattern to a word automaton.
func CompilePattern(p Pattern, alphabet []Label) (*WordAutomaton, error) {
	return spanner.CompileWVA(p, alphabet)
}

// PathQuery is a parsed XPath-like forward path query ("/doc//sec/fig").
type PathQuery = paths.Query

// ParsePath parses a path query.
func ParsePath(s string) (PathQuery, error) { return paths.Parse(s) }

// CompilePath compiles a path query to a compact nondeterministic tree
// automaton (2k states for k steps) selecting the last step's node as x.
// Path queries are the natural showcase of the paper's combined
// complexity: the automaton stays small precisely because it does not
// have to be determinized.
func CompilePath(q PathQuery, alphabet []Label, x Var) (*TreeAutomaton, error) {
	return paths.Compile(q, alphabet, x)
}

// MustCompilePath parses and compiles a literal path query, panicking on
// syntax errors.
func MustCompilePath(path string, alphabet []Label, x Var) *TreeAutomaton {
	return paths.MustCompile(path, alphabet, x)
}
