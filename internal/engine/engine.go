// Package engine is the snapshot-isolated dynamic enumeration engine:
// the concurrent serving layer over the paper's pipeline (Theorems 8.1
// and 8.5).
//
// The engine is a QUERY-SET engine: one maintained forest algebra term
// serves any number of standing queries over the same document. The
// writer core splits into
//
//   - ONE shared source (forest.Forest or forest.Word): the document,
//     its balanced term, the path-copying edits and the scapegoat
//     rebalances. This work is independent of the number of queries —
//     k standing queries pay for it once, not k times.
//
//   - N per-query PIPELINES, one per registered query: a circuit
//     builder for the query's homogenized automaton, the attachment map
//     from live term nodes to frozen (Box, BoxIndex, counts) units, the
//     count fold, the unambiguity verdict, and — in each published
//     snapshot — the γ set of accepting states at the root. Only the
//     O(log|T|)·poly(|Q|) box and index repair along the hollowing trunk
//     (Lemma 7.3) scales with the number of queries — and
//     SIGNATURE-PRUNED REPAIR (pipeline.tryReuse, DESIGN.md §7) cuts
//     even that: a trunk box whose rebuild would reproduce the
//     superseded box gate for gate (γ-neutral relabels, path copies
//     over reused children) keeps its old frozen (box, index, counts)
//     unit at O(1), so a relabel the query does not distinguish repairs
//     the whole trunk without building a single box.
//
// PARALLEL WRITE PATH. Each batch drains the source's trunk ONCE into an
// immutable forest.TrunkDelta; per-query repair then runs through
// pipeline.applyDelta, a self-contained replay with no shared mutable
// state, fanned out across a bounded worker pool (default GOMAXPROCS,
// see SetWorkers). Pipelines share only immutable structure — the
// delta's frozen term nodes and the boxes of untouched subtrees — so
// per-edit publish latency stays flat in the number of subscribers on
// enough cores: O(log|T|) shared term work plus
// O(log|T|·poly(|Q|)·k/workers) repair. A single standing query (or
// SetWorkers(1)) takes a deterministic sequential path with no
// goroutines, so single-query latency does not regress.
//
// Queries register and unregister at runtime. Registration is
// LOCK-LIGHT: the writer lock is held only to pin the current term
// version (and on splice-in); the new pipeline's (box, index, counts)
// tree is built against the pinned term OFF the critical section, while
// edits keep streaming. Deltas published in between are recorded and
// replayed onto the new pipeline before it is spliced in, so the late
// query answers exactly as if registered under a full lock — without
// stalling the edit stream for every other subscriber while a large
// query preprocesses. Unregistration drops exactly one pipeline's
// attachments.
//
// MULTI-QUERY OPTIMIZER (pipeline dedupe). Registrations of
// CONTENT-EQUAL automata — the realistic shape when many subscribers
// register variants of one template — share ONE refcounted pipeline
// instead of paying k× box repair: register keys pipelines by the same
// content key the process-wide circuit.Program cache uses (the
// automaton's canonical rule fingerprint, verified rule for rule on
// collision) plus the repair knob, and a registration whose key
// matches a standing pipeline just bumps its refcount and maps the new
// QueryID onto it — no O(|T|) build, no delta replay, no extra repair
// on any future batch. Equal automata accept exactly the same
// assignments in exactly the same enumeration order (construction is
// deterministic in the rule content), so the per-query "projection" of
// a shared pipeline is the identity: every twin's Snapshot in a
// MultiSnapshot is the shared pipeline's snapshot, and Results / Count
// / At ranks are preserved per query by construction. Unregister
// decrements the refcount and retires the pipeline — attachments and
// boxes — only when it hits zero; a QueryID leaving while its twin
// stays live never invalidates the shared structure.
// The write path fans out over DISTINCT pipelines (worker scheduling
// weights by pipelines, not QueryIDs), which is what makes k standing
// duplicates cost ~1 pipeline per batch. Options.NoDedupe keeps a
// registration on a private pipeline (the differential oracle's knob,
// and the pre-optimizer behavior).
//
// Publication is an immutable MultiSnapshot — query ID → Snapshot —
// installed through a single atomic.Pointer. Readers stay lock-free:
// one atomic load yields a consistent version of every standing query,
// and everything reachable from it is frozen. Cumulative work counters
// are published the same way (Engine.Stats): an immutable EngineStats
// value per publication, readable concurrently with the parallel
// writer.
//
// GOROUTINE CONFINEMENT. A pipeline — its circuit.Builder, its attach
// map, its counting.Folder, its γ cache — is touched by at most one
// goroutine at a time: exactly one pool worker per publication (the
// workers partition the pipeline slice), or the registering goroutine
// before splice-in. Nothing in a pipeline is safe for concurrent use and
// nothing needs to be; the -race churn stress tests
// (TestParallelRegisterChurnStress and friends) enforce the discipline.
//
// ONE WRITE PATH. Every edit — the leaf edits of Definition 7.1 and the
// structural subtree/range edits alike — is an Update applied by
// ApplyBatch (Apply is a batch of one). Batches amortize the publication
// work: all edits of a batch run back-to-back on the forest, the dirtied
// trunk is deduplicated into one TrunkDelta, and boxes shared by several
// edits' trunks are rebuilt once per pipeline instead of once per edit —
// one publication per batch. A caller serving one query per document
// registers it on a TreeSet / WordSet and reads its slice of each
// MultiSnapshot with Query.
//
// THE PIPELINE (Theorem 8.1; Theorem 8.5 for words). Registration and
// every publication run the paper's construction layer by layer:
//
//	tree  ──forest.New──▶ balanced term        (Lemma 7.4, encoding ω)
//	query ──forest.Translate──▶ binary TVA     (Lemma 7.4, faithfulness)
//	      ──Homogenize──▶ homogenized TVA      (Lemma 2.1)
//	term  ──circuit.Builder──▶ assignment circuit, one box per term node
//	                                           (Lemma 3.7)
//	boxes ──enumerate.Wrap──▶ I(C)             (Definition 6.1, Lemma 6.3)
//	      ──enumerate.Assignments──▶ results   (Theorem 6.5)
//
// Updates flow through the forest's hollowing trunks (Definition 7.2):
// each pipeline rebuilds exactly the boxes and index entries of the
// trunk, bottom-up, which is Lemma 7.3.
package engine

import (
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/counting"
	"repro/internal/enumerate"
	"repro/internal/forest"
	"repro/internal/tree"
)

// Options configure a registered query. Both are diagnostic knobs; the
// zero value is what production callers want. The engine-wide worker
// pool bound is set with Engine.SetWorkers.
type Options struct {
	// FullRebuild disables signature-pruned box reuse for this query:
	// every trunk node's box is rebuilt even when the rebuild would be
	// structurally identical to the superseded one. The answers are the
	// same either way — this is the diagnostic/testing knob behind the
	// pruned-vs-full-rebuild differential suite and the B1 experiment's
	// comparison rows, not something production callers want.
	FullRebuild bool

	// NoDedupe opts this registration out of the multi-query optimizer:
	// it gets a PRIVATE pipeline even when a standing pipeline over a
	// content-equal automaton exists, and never serves as a dedupe
	// target itself. The answers are identical either way — this is the
	// diagnostic knob behind the dedupe differential suite (and the
	// pre-optimizer one-pipeline-per-query behavior), not something
	// production callers want.
	NoDedupe bool
}

// QueryID identifies a registered query within an Engine. IDs are
// assigned by Register, never reused, and start at 1; the zero value is
// never a valid query.
type QueryID int

// Source is the writer-side view of a maintained forest algebra term:
// both forest.Forest (trees, Theorem 8.1) and forest.Word (words,
// Theorem 8.5) implement it, which is what lets one engine core serve
// both pipelines.
type Source interface {
	// TermRoot returns the current term root.
	TermRoot() *forest.Node
	// DrainDelta returns the batch's hollowing information — fresh trunk
	// nodes (children before parents), retired nodes, resulting root —
	// as one immutable, replayable TrunkDelta, and resets the dirty
	// protocol. Many consumers may replay the returned delta
	// concurrently; the source never mutates nodes reachable from it.
	// (Late registration needs no extra protocol: it pins TermRoot and
	// walks the frozen term directly.)
	DrainDelta() forest.TrunkDelta
	// Rebalances returns the cumulative number of scapegoat rebuilds.
	Rebalances() int
	// CheckBalanceDeep verifies the height budget of EVERY term node
	// (O(n); the differential suites call it after each batch).
	CheckBalanceDeep() error
}

// pipeKey identifies the work a pipeline does, for the multi-query
// optimizer: the content fingerprint of the homogenized automaton's
// canonical rules (the same fingerprint the circuit.Program cache
// hashes; verified by Program.ContentEqual on lookup, so a hash
// collision can never alias two distinct queries onto one pipeline),
// the FullRebuild knob and the pre-homogenization state count (a
// stats-only input, included so shared pipelines are indistinguishable
// from private ones on every observable surface).
type pipeKey struct {
	fp          uint64
	fullRebuild bool
	translated  int
}

// pipeline is the per-PIPELINE half of the engine: everything that
// depends on one standing automaton. Since the multi-query optimizer,
// a pipeline may serve SEVERAL registered QueryIDs at once (refs is the
// refcount, guarded by the engine lock like the registration maps): all
// twins read the same published Snapshot, which is sound because their
// automata are content-equal. The shared term work (path copies,
// rebalances) lives in the Source; a pipeline only ever consumes
// immutable trunk deltas. A pipeline is GOROUTINE-CONFINED: it is
// mutated by exactly one goroutine at a time (one pool worker per
// publication, or the registering goroutine before splice-in) and none
// of its state — builder, indexer, count fold, attach map, γ cache — is
// safe for concurrent use.
type pipeline struct {
	// refs counts the QueryIDs served by this pipeline; the pipeline
	// retires (attachments dropped) only when it reaches zero.
	// key/shared record its slot in the engine's dedupe index (shared
	// is false for Options.NoDedupe pipelines, which are never dedupe
	// targets). All three are guarded by the engine mutex, not touched
	// by the worker pool.
	refs   int
	key    pipeKey
	shared bool

	builder *circuit.Builder
	// indexer owns the reusable index-construction scratch; confined to
	// the pipeline like the builder's arena.
	indexer enumerate.Indexer

	// attach maps live term nodes to their frozen wrapper. Entries of
	// term nodes retired by path copying are released eagerly by every
	// delta replay, so the map — and with it the set of superseded boxes
	// the writer keeps alive — tracks the live term; published snapshots
	// hold their own references and are unaffected.
	attach map[*forest.Node]*enumerate.IndexedBox

	// fold computes the derivation counts of the Section 4 multiset
	// remark: attachNode folds each fresh box's counts from its
	// children's wrappers into the box's own frozen wrapper
	// (IndexedBox.Counts), so count maintenance rides the same
	// O(log|T|)·poly(|Q|) trunk repair as the index, and the counts of a
	// retired box go with its wrapper.
	fold *counting.Folder[*big.Int]

	// unambiguous records the registration-time tva.Unambiguous check:
	// when set, derivation counts equal answer counts and snapshots take
	// the O(poly|Q|) Count / At fast paths.
	unambiguous bool

	// fullRebuild disables the signature-pruned reuse fast path
	// (Options.FullRebuild): every trunk box is rebuilt.
	fullRebuild bool

	translatedStates int
	boxesRebuilt     int // cumulative for this query, incl. registration
	boxesReused      int // trunk boxes served by signature-pruned reuse

	// gamma caches the accepting boxed set at the root, keyed by the
	// root box it was computed for: publications that leave this
	// pipeline's root untouched (register/unregister of OTHER queries)
	// skip the poly(|Q|) RootAccepting recomputation. count is the total
	// derivation count at that root (the Snapshot.Derivations value),
	// cached under the same key.
	gamma     bitset.Set
	emptyOK   bool
	count     *big.Int
	gammaRoot *circuit.Box
}

// attachNode builds the frozen (box, index, counts) unit for one term
// node whose children (if any) are already attached, and records it.
func (p *pipeline) attachNode(n *forest.Node) {
	var ib *enumerate.IndexedBox
	if n.IsLeaf() {
		ib = p.indexer.Wrap(p.builder.LeafBox(n.BinaryLabel(), n.TreeID), nil, nil, true)
		ib.Counts = p.fold.Box(ib.Box, nil, nil)
	} else {
		l, r := p.attach[n.Left], p.attach[n.Right]
		ib = p.indexer.Wrap(p.builder.InnerBox(n.BinaryLabel(), tree.InvalidNode, l.Box, r.Box), l, r, true)
		ib.Counts = p.fold.Box(ib.Box, l.Counts, r.Counts)
	}
	p.attach[n] = ib
	p.boxesRebuilt++
}

// tryReuse is the signature-pruned repair fast path: if the trunk node's
// rebuild is guaranteed to reproduce the superseded node's box gate for
// gate, the old frozen (box, index, counts) unit is returned for reuse
// and nothing is built. Two sound cases:
//
//   - LEAF whose current label yields the same gate structure the old
//     box has (Builder.LeafReusable: template signature plus structural
//     verify) — the relabel case, where a label change the automaton
//     does not distinguish keeps γ shape identical;
//   - INNER whose children wrappers are POINTER-EQUAL to the old box's
//     and whose label (term operator) is unchanged — box construction
//     is deterministic in (label, left, right), so the rebuild would be
//     identical. This is what stops propagation: once the box at the
//     bottom of the trunk is reused, every ancestor's children compare
//     pointer-equal and repair costs O(1) per trunk node instead of a
//     poly(|Q|) rebuild.
//
// Pointer equality of the children is REQUIRED for the inner case: a
// rebuilt child with identical shape but fresh identity carries updated
// gates below, and an old parent box would keep enumerating the stale
// subtree. The leaf case has no children, and identity of the node is
// pinned by LeafReusable's Node check.
func (p *pipeline) tryReuse(n, prev *forest.Node) *enumerate.IndexedBox {
	if prev == nil {
		return nil
	}
	old, ok := p.attach[prev]
	if !ok {
		return nil
	}
	if n.IsLeaf() {
		if p.builder.LeafReusable(old.Box, n.BinaryLabel(), n.TreeID) {
			return old
		}
		return nil
	}
	if old.IsLeaf() {
		return nil
	}
	l, r := p.attach[n.Left], p.attach[n.Right]
	if l != nil && r != nil && old.Left == l && old.Right == r && old.Box.Label == n.BinaryLabel() {
		return old
	}
	return nil
}

// replay brings the pipeline's attachments from the previous term
// version to the delta's: per trunk node, children before parents,
// either a signature-pruned REUSE of the superseded node's frozen (box,
// index, counts) unit (tryReuse) or a fresh rebuild, sharing the
// wrappers of all untouched subtrees either way (Lemma 7.3); then the
// retirement cleanup — drop the attachment of every node the batch
// removed from the term (paid here, on the replaying goroutine, not by
// the writer). Nodes never attached are a no-op.
func (p *pipeline) replay(delta forest.TrunkDelta) {
	for i, n := range delta.Fresh {
		if !p.fullRebuild {
			if ib := p.tryReuse(n, delta.PrevOf(i)); ib != nil {
				p.attach[n] = ib
				p.boxesReused++
				continue
			}
		}
		p.attachNode(n)
	}
	// Moved roots: a structural edit relocated these whole subterms
	// without rebuilding them, so every node under a moved root keeps its
	// frozen (box, index, counts) unit untouched — no work, only the reuse
	// credit (a subterm of weight w is a full binary term of 2w−1 nodes).
	for _, m := range delta.Moved {
		if _, ok := p.attach[m]; ok {
			p.boxesReused += 2*m.Weight - 1
		}
	}
	for _, n := range delta.Retired {
		delete(p.attach, n)
	}
}

// pubInfo carries the shared per-publication values every pipeline's
// snapshot records; it is read-only for the workers.
type pubInfo struct {
	version    uint64
	termHeight int
	pathCopies int
	rebalances int
	reads      *readCounters // engine-owned read-path counters
}

// applyDelta is the self-contained per-query unit of the parallel write
// path: replay the immutable trunk delta (box/index/count repair plus
// retirement cleanup), recompute γ and the root derivation count if this
// pipeline's root box changed, and assemble the query's published
// Snapshot. It touches no state outside the pipeline, so the engine may
// run any number of applyDelta calls — one per pipeline — concurrently
// against the same delta.
func (p *pipeline) applyDelta(delta forest.TrunkDelta, pub pubInfo) *Snapshot {
	p.replay(delta)
	rootIB := p.attach[delta.Root]
	if p.gammaRoot != rootIB.Box {
		p.gamma, p.emptyOK = p.builder.RootAccepting(&circuit.Circuit{Root: rootIB.Box})
		p.count = counting.Total[*big.Int](counting.Derivations{}, rootIB.Counts, p.gamma, p.emptyOK)
		p.gammaRoot = rootIB.Box
	}
	return &Snapshot{
		root:             rootIB,
		gamma:            p.gamma,
		emptyOK:          p.emptyOK,
		count:            p.count,
		unambiguous:      p.unambiguous,
		version:          pub.version,
		termHeight:       pub.termHeight,
		boxesRebuilt:     p.boxesRebuilt,
		boxesReused:      p.boxesReused,
		pathCopies:       pub.pathCopies,
		rebalances:       pub.rebalances,
		translatedStates: p.translatedStates,
		builder:          p.builder,
		reads:            pub.reads,
	}
}

// Engine is the shared writer core of a query set: it owns the source's
// trunk drain, the per-query pipelines, the worker pool bound, and the
// published MultiSnapshot. All mutation goes through ApplyBatch /
// Register / Unregister, which serialize writers; Snapshot and Stats are
// safe from any goroutine at any time.
type Engine struct {
	mu      sync.Mutex
	src     Source
	pipes   map[QueryID]*pipeline // several IDs may share one pipeline
	order   []QueryID             // registered IDs, ascending (publication order)
	nextID  QueryID
	workers int

	// edit applies one Update to src: the source-specific half of
	// ApplyBatch, supplied by NewTreeSet / NewWordSet.
	edit func(Update) (tree.NodeID, error)

	// byKey is the multi-query optimizer's dedupe index: content key →
	// standing shareable pipelines (a short chain, in case distinct
	// automata ever collide on the 64-bit fingerprint — lookups verify
	// rule content before sharing). NoDedupe pipelines are absent.
	byKey map[pipeKey][]*pipeline
	// dedupedRegs counts registrations served by bumping a standing
	// pipeline's refcount instead of building (cumulative, monotone).
	dedupedRegs int

	// regPins holds the absolute delta-log start index of every
	// in-flight lock-light registration; while any is pinned, deltaLog
	// records every published TrunkDelta so the registering goroutines
	// can replay what they missed before splicing their pipelines in.
	// logBase is the absolute index of deltaLog[0]; whenever a pin
	// drops, the prefix no remaining pin needs is trimmed, so the log is
	// bounded by the deltas published during the longest STILL-RUNNING
	// registration (not by overlapping chains of them).
	regPins  []int
	logBase  int
	deltaLog []forest.TrunkDelta

	snap  atomic.Pointer[MultiSnapshot]
	stats atomic.Pointer[EngineStats]

	// reads aggregates read-path work (answers enumerated, parallel
	// drains) across every snapshot this engine publishes; snapshots
	// carry a pointer and bump the atomics lock-free.
	reads readCounters

	version    uint64
	pathCopies int // cumulative term nodes drained (shared across queries)
	// boxesReleased/reusedReleased accumulate the boxesRebuilt/boxesReused
	// counters of unregistered pipelines so EngineStats.BoxesRebuilt and
	// .BoxesReused stay cumulative and monotone.
	boxesReleased  int
	reusedReleased int

	// subs is the delta-streaming subscriber registry (delta.go): per
	// QueryID, the live Subscribe channels fed at publication time.
	// differ is the engine's reusable count-guided co-descent differ;
	// publication is serialized under e.mu, so one instance suffices.
	subs             map[QueryID][]*subscriber
	differ           *enumerate.Differ
	deltaResyncLimit int
	// Write-path delta counters (mutated under e.mu during publication,
	// surfaced via EngineStats): deltas offered to subscribers, answers
	// added/removed across computed per-pipeline diffs, offers that
	// coalesced into a still-pending delivery, and the keyed diffs of
	// ambiguous pipelines with the answers they enumerated.
	deltasEmitted    int64
	answersAdded     int64
	answersRemoved   int64
	deltasCoalesced  int64
	keyedDiffs       int64
	keyedDiffAnswers int64
}

// initEngine wires the shared fields around the freshly built source,
// consumes the initial build's delta (there are no pipelines yet to
// replay it — late registration walks the live term instead), and
// installs the empty version-0 MultiSnapshot so Snapshot never returns
// nil. The first registration publishes version 1. Called by NewTreeSet
// / NewWordSet, which supply the source's edit switch.
func (e *Engine) initEngine(src Source, edit func(Update) (tree.NodeID, error)) {
	e.src = src
	e.edit = edit
	e.pipes = map[QueryID]*pipeline{}
	e.byKey = map[pipeKey][]*pipeline{}
	e.workers = runtime.GOMAXPROCS(0)
	delta := src.DrainDelta()
	e.pathCopies += len(delta.Fresh)
	e.snap.Store(&MultiSnapshot{snaps: map[QueryID]*Snapshot{}})
	e.publishStats()
}

// CheckBalanceDeep verifies the height budget of every node of the
// current term: the scapegoat invariant the structural edits must
// maintain. O(n) — a test/differential-oracle hook, not a production
// call. Writer-side: callers must not race it with mutations.
func (e *Engine) CheckBalanceDeep() error { return e.src.CheckBalanceDeep() }

// SetWorkers bounds the worker pool of the parallel write path: at most
// n goroutines fan each trunk delta out across the standing queries'
// pipelines. n <= 0 resets to the default, runtime.GOMAXPROCS(0); n == 1
// forces the deterministic sequential path. The bound applies from the
// next publication on.
func (e *Engine) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.workers = n
}

// lookupShared returns the standing shareable pipeline for the key, or
// nil. Callers hold e.mu. The fingerprint match is verified against the
// actual rule content (Program.ContentEqual) so a hash collision can
// never alias two distinct queries onto one pipeline.
func (e *Engine) lookupShared(key pipeKey, prog *circuit.Program) *pipeline {
	for _, cand := range e.byKey[key] {
		if cand.builder.Program().ContentEqual(prog) {
			return cand
		}
	}
	return nil
}

// adoptLocked maps a fresh QueryID onto the pipeline (bumping its
// refcount), publishes a MultiSnapshot that includes the new query, and
// returns the ID. Callers hold e.mu; the pipeline is already current
// (a standing dedupe target, or a freshly built one that replayed the
// delta log).
func (e *Engine) adoptLocked(p *pipeline) QueryID {
	p.refs++
	e.nextID++
	id := e.nextID
	e.pipes[id] = p
	e.order = append(e.order, id) // nextID is increasing: order stays sorted
	e.applyAndPublish()
	return id
}

// register creates — or, for a content-equal automaton, SHARES — the
// pipeline for a prepared query builder. The dedupe fast path: if a
// shareable standing pipeline has the same content key (automaton rule
// fingerprint + knobs, verified rule for rule), the new QueryID
// just joins it — refcount up, one publication, no O(|T|) build and no
// extra repair on any future batch. Otherwise the pipeline is built
// against the pinned current term OFF the writer's critical section,
// the deltas published meanwhile are replayed, and the finished
// pipeline is spliced in under a short lock hold, publishing a
// MultiSnapshot that includes the new query. Edits (and other
// registrations) stream concurrently with the O(|T|) build —
// registering a large query no longer stalls the update stream.
func (e *Engine) register(builder *circuit.Builder, translated int, opts Options) QueryID {
	key := pipeKey{
		fp:          builder.Program().Fingerprint(),
		fullRebuild: opts.FullRebuild,
		translated:  translated,
	}
	if !opts.NoDedupe {
		e.mu.Lock()
		if twin := e.lookupShared(key, builder.Program()); twin != nil {
			e.dedupedRegs++
			id := e.adoptLocked(twin)
			e.mu.Unlock()
			return id
		}
		e.mu.Unlock()
	}

	p := &pipeline{
		key:              key,
		builder:          builder,
		attach:           map[*forest.Node]*enumerate.IndexedBox{},
		fold:             counting.NewFolder[*big.Int](counting.Derivations{}),
		translatedStates: translated,
		fullRebuild:      opts.FullRebuild,
		// Off-lock: the builder is confined to this goroutine until
		// splice-in.
		unambiguous: builder.A.Unambiguous(),
	}

	// Short lock hold #1: pin the current term version and start
	// recording deltas. Any trunk left undrained by a non-publication path is
	// absorbed first so the pinned walk sees exactly the live term
	// (normally a no-op: every mutation drains before publishing).
	e.mu.Lock()
	e.absorbPending()
	root := e.src.TermRoot()
	pin := e.logBase + len(e.deltaLog)
	e.regPins = append(e.regPins, pin)
	e.mu.Unlock()

	// Off the critical section: the O(|T|) bottom-up build against the
	// pinned term. Path copying never mutates published nodes, so the
	// walk reads only frozen structure even while edits stream.
	root.Walk(p.attachNode)

	// Short lock hold #2: catch up on the deltas published since the
	// pin (their fresh nodes' children are either pinned — attached by
	// the walk — or fresh in an earlier delta, so replay order is
	// children-first throughout), then splice the pipeline in.
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range e.deltaLog[pin-e.logBase:] {
		p.replay(d)
	}
	e.unpin(pin)
	if !opts.NoDedupe {
		// A twin may have finished registering while we built: converge
		// on it (our build is discarded) so the one-shared-pipeline-
		// per-key invariant holds no matter how registrations race.
		if twin := e.lookupShared(key, builder.Program()); twin != nil {
			e.dedupedRegs++
			return e.adoptLocked(twin)
		}
		p.shared = true
		e.byKey[key] = append(e.byKey[key], p)
	}
	return e.adoptLocked(p)
}

// Unregister removes a standing query and publishes a MultiSnapshot
// without it. The query's pipeline loses one reference; only when the
// LAST QueryID sharing it leaves are its attachments released (the
// boxes stay alive only as long as already-published snapshots
// reference them) — unregistering a query whose twin still stands
// never retires the shared structure. The shared term and every other
// pipeline are untouched.
func (e *Engine) Unregister(id QueryID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.pipes[id]
	if !ok {
		return fmt.Errorf("engine: query %d is not registered", id)
	}
	p.refs--
	if p.refs == 0 {
		if p.shared {
			chain := e.byKey[p.key]
			i := slices.Index(chain, p)
			chain = slices.Delete(chain, i, i+1)
			if len(chain) == 0 {
				delete(e.byKey, p.key)
			} else {
				e.byKey[p.key] = chain
			}
		}
		e.boxesReleased += p.boxesRebuilt
		e.reusedReleased += p.boxesReused
	}
	delete(e.pipes, id)
	i := slices.Index(e.order, id)
	e.order = slices.Delete(e.order, i, i+1)
	e.closeSubsLocked(id)
	e.applyAndPublish()
	return nil
}

// Queries returns the currently registered query IDs, ascending.
func (e *Engine) Queries() []QueryID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.order)
}

// ApplyBatch applies the updates in order under one writer-lock hold,
// drains the dirtied trunk into one immutable delta, fans it out to
// every registered pipeline — in parallel across the worker pool for
// k > 1 — and atomically publishes ONE MultiSnapshot for the whole
// batch. Box and index repair is amortized across the batch per query:
// trunk nodes dirtied by several edits are rebuilt once, not once per
// edit, so k clustered edits cost well below k single publications — and
// the forest/term work is paid once regardless of how many queries
// stand.
//
// The returned IDs give, per batch position, the ID the update created:
// the new node of a tree insert (for subtree grafts, the copy's root),
// the new letter of a word insert, and for OpInsertRange / OpConcat the
// FIRST fresh letter — a range's letters get consecutive IDs, so label j
// of Update.Labels is letter ids[i]+j. Every other position, and every
// position not applied, holds tree.InvalidNode (node 0 is a valid ID,
// the root of parsed trees). On the first failing update the batch
// stops; the edits already applied are still published (each forest
// edit is atomic), and the error identifies the position. An empty
// batch publishes nothing and returns the current MultiSnapshot.
func (e *Engine) ApplyBatch(batch []Update) (*MultiSnapshot, []tree.NodeID, error) {
	m, ids, failed, err := e.applyBatch(batch)
	if err != nil {
		u := batch[failed]
		err = fmt.Errorf("engine: batch update %d (%v n%d): %w", failed, u.Op, u.Node, err)
	}
	return m, ids, err
}

// Apply applies one update as a batch of one (see ApplyBatch) and
// returns the ID it created, tree.InvalidNode if none; the error is the
// edit's own, without a batch position. The resulting publication is
// read back with Snapshot.
func (e *Engine) Apply(u Update) (tree.NodeID, error) {
	_, ids, _, err := e.applyBatch([]Update{u})
	return ids[0], err
}

// applyBatch is the one edit loop behind ApplyBatch and Apply: it runs
// the updates under the writer lock up to the first failure, whose
// position it returns with the unwrapped error, and publishes once. An
// empty batch changes nothing, so it publishes nothing: it returns the
// current MultiSnapshot, and subscribers see no delta.
func (e *Engine) applyBatch(batch []Update) (*MultiSnapshot, []tree.NodeID, int, error) {
	if len(batch) == 0 {
		return e.Snapshot(), nil, -1, nil
	}
	ids := make([]tree.NodeID, len(batch))
	for i := range ids {
		ids[i] = tree.InvalidNode
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, u := range batch {
		v, err := e.edit(u)
		if err != nil {
			return e.applyAndPublish(), ids, i, err
		}
		ids[i] = v
	}
	return e.applyAndPublish(), ids, -1, nil
}

// Snapshot returns the currently published MultiSnapshot: one atomic
// load, no locks. The result is immutable — a consistent version of
// every standing query — and remains fully usable no matter how many
// updates, registrations or unregistrations follow.
func (e *Engine) Snapshot() *MultiSnapshot { return e.snap.Load() }

// unpin drops one registration's pin and trims the delta-log prefix no
// remaining pin needs, releasing the references that kept retired term
// nodes (and their boxes) alive. Callers hold e.mu and have already
// replayed the log from their pin.
func (e *Engine) unpin(pin int) {
	i := slices.Index(e.regPins, pin)
	e.regPins = slices.Delete(e.regPins, i, i+1)
	if len(e.regPins) == 0 {
		e.logBase += len(e.deltaLog)
		e.deltaLog = nil
		return
	}
	if drop := slices.Min(e.regPins) - e.logBase; drop > 0 {
		// slices.Delete shifts in place and zeroes the tail, so the
		// dropped deltas' nodes become collectable.
		e.deltaLog = slices.Delete(e.deltaLog, 0, drop)
		e.logBase += drop
	}
}

// absorbPending drains any trunk left by a non-publication path into the
// standing pipelines without publishing (defensive; the dirty protocol
// is normally empty outside applyAndPublish). Callers hold e.mu.
func (e *Engine) absorbPending() {
	delta := e.src.DrainDelta()
	if delta.Empty() {
		return
	}
	e.pathCopies += len(delta.Fresh)
	if len(e.regPins) > 0 {
		e.deltaLog = append(e.deltaLog, delta)
	}
	for _, p := range e.distinctPipes(e.order) {
		p.replay(delta)
	}
}

// distinctPipes returns the DISTINCT pipelines behind the given query
// IDs, in first-appearance order (ascending first QueryID). This is the
// unit the write path fans out over: k registrations sharing d
// pipelines cost d repairs, not k. Callers hold e.mu.
func (e *Engine) distinctPipes(ids []QueryID) []*pipeline {
	out := make([]*pipeline, 0, len(ids))
	seen := make(map[*pipeline]bool, len(ids))
	for _, id := range ids {
		if p := e.pipes[id]; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// applyAndPublish is the write path's back half: drain the trunk ONCE
// into an immutable TrunkDelta, fan pipeline.applyDelta out across the
// worker pool (sequentially for a single query or SetWorkers(1)),
// assemble and atomically install the MultiSnapshot, and publish the
// stats reading. Callers hold e.mu. O(log|T|·poly(|Q|)·k/workers) plus the
// O(queries) assembly.
func (e *Engine) applyAndPublish() *MultiSnapshot {
	delta := e.src.DrainDelta()
	e.pathCopies += len(delta.Fresh)
	if len(e.regPins) > 0 && !delta.Empty() {
		e.deltaLog = append(e.deltaLog, delta)
	}
	e.version++
	pub := pubInfo{
		version:    e.version,
		termHeight: delta.Root.Height,
		pathCopies: e.pathCopies,
		rebalances: e.src.Rebalances(),
		reads:      &e.reads,
	}

	ids := slices.Clone(e.order)
	// The fan-out unit is the DISTINCT pipeline: k registered queries
	// deduped onto d pipelines repair d (box, index, counts) trees, and
	// the worker pool is sized by d, not k.
	pipes := e.distinctPipes(ids)
	snaps := make(map[*pipeline]*Snapshot, len(pipes))
	if w := min(e.workers, len(pipes)); w <= 1 || delta.Empty() {
		// Deterministic sequential path: d <= 1, SetWorkers(1), or an
		// empty delta (register/unregister publications — replay is a
		// no-op and γ is cached, so per-pipeline work is O(1) and
		// spawning workers would cost more than it saves). No
		// goroutines, no pool overhead — single-query latency is
		// identical to the pre-parallel engine.
		for _, p := range pipes {
			snaps[p] = p.applyDelta(delta, pub)
		}
	} else {
		// Bounded pool: w workers claim pipeline indices from a shared
		// counter. Each pipeline is touched by exactly one worker
		// (goroutine confinement), all workers replay the same immutable
		// delta, and wg.Wait orders every worker write before the
		// publication below.
		out := make([]*Snapshot, len(pipes))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(pipes) {
						return
					}
					out[i] = pipes[i].applyDelta(delta, pub)
				}
			}()
		}
		wg.Wait()
		for i, p := range pipes {
			snaps[p] = out[i]
		}
	}

	m := &MultiSnapshot{
		version: e.version,
		ids:     ids,
		snaps:   make(map[QueryID]*Snapshot, len(ids)),
	}
	// Twin QueryIDs project the SAME snapshot: content-equal automata
	// answer identically, so the per-query view of a shared pipeline is
	// the identity projection.
	for _, id := range ids {
		m.snaps[id] = snaps[e.pipes[id]]
	}
	e.dispatchDeltas(e.snap.Load(), m)
	e.snap.Store(m)
	e.publishStats()
	return m
}
