package main

import (
	"fmt"
	"math/big"
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/counting"
	"repro/internal/engine"
	"repro/internal/enumerate"
	"repro/internal/forest"
	"repro/internal/tree"
	"repro/internal/tva"
)

// rpipe is the replica of one engine pipeline: a circuit builder, the
// attachment map from live term nodes to frozen (box, index, counts)
// units, and the counting evaluator — built and repaired only through
// the layers' exported functions.
type rpipe struct {
	name        string
	builder     *circuit.Builder
	indexer     enumerate.Indexer
	attach      map[*forest.Node]*enumerate.IndexedBox
	counts      *counting.Evaluator[*big.Int]
	unambiguous bool

	root      *enumerate.IndexedBox
	gamma     bitset.Set
	emptyOK   bool
	count     *big.Int
	gammaRoot *circuit.Box

	// Per-publish scratch: fresh nodes to rebuild and their new boxes.
	rebuild []*forest.Node
	boxes   map[*forest.Node]*circuit.Box
	forget  []*circuit.Box
}

// version is one published state of a pipeline.
type version struct {
	root    *enumerate.IndexedBox
	gamma   bitset.Set
	emptyOK bool
}

func (p *rpipe) version() version { return version{p.root, p.gamma, p.emptyOK} }

// replayStats counts the repair work of traced publishes.
type replayStats struct {
	fresh, rebuilt, reused, diffAnswers int
}

// replica drives the engine's write and read paths from the layers'
// exported functions, recording spans around the layer calls. It applies
// the layers in the engine's order, grouped per layer inside a
// pipeline's repair (all boxes, then all index wrappers, then all
// counts), so each span covers a batch of calls rather than a single
// sub-microsecond one.
type replica struct {
	tr     *tracer
	f      *forest.Forest
	pipes  []*rpipe
	regs   []int // registration index → pipeline index
	sub    int   // subscribed pipeline
	read   int   // pipeline pages and drains read
	differ *enumerate.Differ
	descs  []*enumerate.Descender
	ropes  []*enumerate.Rope

	// Setup layer times per distinct query (ms) and per pipeline walk.
	translate, unambiguous, program, build []float64

	stats            replayStats
	edits, traced    int
	rebalances0      int
	rankCalls        int              // AtInt calls in traced pages
	materialized     int              // Materialize calls in traced pages
	steps            int              // iterator steps in traced pages and drains
	gammaSlots       int              // pipelines × traced publishes
	gammaCalls       int              // γ recomputations in traced publishes
	gammaProbe       [2]time.Duration // RootAccepting, Gamma
	gammaProbeN      int
	publishNs        int64
	dispatchNs       int64
	ops              [3]int        // operations per kind, traced or not
	tracedWall       time.Duration // wall time of the traced operations
	publishWall      [2][]int64    // ns per publish, untraced/traced
	lastAdd, lastRem []tree.Assignment
	// mark is the subscribed pipeline's version at the last checkpoint,
	// the old side of the checkpoint cross-check of the diff.
	mark          version
	fallbackProbe time.Duration
	fallbackN     int
}

// setupRepeats is how often the cheap per-query setup steps are timed.
const setupRepeats = 5

// newReplica preprocesses the document the way the engine does: term
// build, then per distinct query translation plus homogenisation, the
// unambiguity check, the compiled program, and the O(|T|) build walk.
// The cheap per-query steps are repeated and their medians kept.
func newReplica(doc *tree.Unranked, sp spec) (*replica, error) {
	rp := &replica{tr: newTracer(), f: forest.New(doc), differ: enumerate.NewDiffer(enumerate.ModeIndexed)}
	rp.f.DrainDelta()
	byName := map[string]int{}
	for _, name := range sp.regs {
		if i, ok := byName[name]; ok {
			rp.regs = append(rp.regs, i)
			continue
		}
		q, err := queryByName(name)
		if err != nil {
			return nil, err
		}
		p, err := rp.newPipe(name, q)
		if err != nil {
			return nil, err
		}
		byName[name] = len(rp.pipes)
		rp.regs = append(rp.regs, len(rp.pipes))
		rp.pipes = append(rp.pipes, p)
	}
	rp.sub, rp.read = rp.regs[sp.subscribed], rp.regs[sp.read]
	rp.mark = rp.pipes[rp.sub].version()
	rp.rebalances0 = rp.f.Rebalances()
	return rp, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func (rp *replica) newPipe(name string, q *tva.Unranked) (*rpipe, error) {
	var tr, un, pr []float64
	var h *tva.Binary
	var b *circuit.Builder
	var unamb bool
	for range setupRepeats {
		start := time.Now()
		ab, err := forest.Translate(q)
		if err != nil {
			return nil, err
		}
		h = ab.Homogenize()
		tr = append(tr, msSince(start))
		start = time.Now()
		unamb = h.Unambiguous()
		un = append(un, msSince(start))
		start = time.Now()
		if b, err = circuit.NewBuilder(h); err != nil {
			return nil, err
		}
		pr = append(pr, msSince(start))
	}
	rp.translate = append(rp.translate, median(tr))
	rp.unambiguous = append(rp.unambiguous, median(un))
	rp.program = append(rp.program, median(pr))
	p := &rpipe{
		name:        name,
		builder:     b,
		attach:      map[*forest.Node]*enumerate.IndexedBox{},
		counts:      counting.NewEvaluator[*big.Int](counting.Derivations{}),
		unambiguous: unamb,
		boxes:       map[*forest.Node]*circuit.Box{},
	}
	start := time.Now()
	rp.f.TermRoot().Walk(func(n *forest.Node) {
		var ib *enumerate.IndexedBox
		if n.IsLeaf() {
			ib = p.indexer.Wrap(p.builder.LeafBox(n.BinaryLabel(), n.TreeID), nil, nil, true)
		} else {
			l, r := p.attach[n.Left], p.attach[n.Right]
			ib = p.indexer.Wrap(p.builder.InnerBox(n.BinaryLabel(), tree.InvalidNode, l.Box, r.Box), l, r, true)
		}
		ib.Counts = p.counts.UnionsOf(ib.Box)
		p.attach[n] = ib
	})
	rp.build = append(rp.build, msSince(start))
	p.refresh(rp.f.TermRoot(), rp.tr, new(int))
	return p, nil
}

// apply performs one update on the replica's forest, as
// engine.TreeSet.ApplyBatch does for a one-edit batch.
func (rp *replica) apply(u engine.Update) (tree.NodeID, error) {
	f := rp.f
	switch u.Op {
	case engine.OpRelabel:
		return tree.InvalidNode, f.Relabel(u.Node, u.Label)
	case engine.OpInsertFirstChild:
		return f.InsertFirstChild(u.Node, u.Label)
	case engine.OpInsertRightSibling:
		return f.InsertRightSibling(u.Node, u.Label)
	case engine.OpDelete:
		return tree.InvalidNode, f.Delete(u.Node)
	case engine.OpDeleteSubtree:
		return tree.InvalidNode, f.DeleteSubtree(u.Node)
	case engine.OpMoveSubtreeFirstChild:
		return tree.InvalidNode, f.MoveSubtreeFirstChild(u.Node, u.Dest)
	case engine.OpMoveSubtreeRightSibling:
		return tree.InvalidNode, f.MoveSubtreeRightSibling(u.Node, u.Dest)
	case engine.OpInsertSubtreeFirstChild:
		return f.InsertSubtreeFirstChild(u.Node, u.Fragment)
	case engine.OpInsertSubtreeRightSibling:
		return f.InsertSubtreeRightSibling(u.Node, u.Fragment)
	}
	return tree.InvalidNode, fmt.Errorf("replica: unsupported update %v", u.Op)
}

// replay repairs the pipeline along one trunk delta: first the reuse
// decisions (the engine's signature-pruned fast path: a fresh leaf
// whose box would be rebuilt gate for gate, or an inner node whose
// children wrappers are pointer-equal to the superseded node's), then
// the boxes, index wrappers and counts of the rest, children first;
// then the retired nodes' counting cache entries are forgotten.
func (p *rpipe) replay(d forest.TrunkDelta, tr *tracer, st *replayStats) {
	p.rebuild = p.rebuild[:0]
	clear(p.boxes)
	var kept map[*circuit.Box]bool
	for i, n := range d.Fresh {
		if ib := p.reusable(n, d.PrevOf(i)); ib != nil {
			p.attach[n] = ib
			st.reused++
			if kept == nil {
				kept = map[*circuit.Box]bool{}
			}
			kept[ib.Box] = true
			continue
		}
		p.rebuild = append(p.rebuild, n)
	}
	st.rebuilt += len(p.rebuild)

	boxOf := func(n *forest.Node) *circuit.Box {
		if b, ok := p.boxes[n]; ok {
			return b
		}
		return p.attach[n].Box
	}
	tr.begin(spBox)
	for _, n := range p.rebuild {
		if n.IsLeaf() {
			p.boxes[n] = p.builder.LeafBox(n.BinaryLabel(), n.TreeID)
		} else {
			p.boxes[n] = p.builder.InnerBox(n.BinaryLabel(), tree.InvalidNode, boxOf(n.Left), boxOf(n.Right))
		}
	}
	tr.end()

	tr.begin(spIndex)
	for _, n := range p.rebuild {
		if n.IsLeaf() {
			p.attach[n] = p.indexer.Wrap(p.boxes[n], nil, nil, true)
		} else {
			p.attach[n] = p.indexer.Wrap(p.boxes[n], p.attach[n.Left], p.attach[n.Right], true)
		}
	}
	tr.end()

	tr.begin(spUnions)
	for _, n := range p.rebuild {
		ib := p.attach[n]
		ib.Counts = p.counts.UnionsOf(ib.Box)
	}
	tr.end()

	p.forget = p.forget[:0]
	for _, n := range d.Retired {
		if ib, ok := p.attach[n]; ok {
			if !kept[ib.Box] {
				p.forget = append(p.forget, ib.Box)
			}
			delete(p.attach, n)
		}
	}
	tr.begin(spForget)
	for _, b := range p.forget {
		p.counts.Forget(b)
	}
	tr.end()
}

// reusable mirrors the engine's reuse test for one fresh node.
func (p *rpipe) reusable(n, prev *forest.Node) *enumerate.IndexedBox {
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

// refresh recomputes γ and the root derivation count when the root box
// changed, counting the recomputations of traced publishes in calls.
func (p *rpipe) refresh(root *forest.Node, tr *tracer, calls *int) {
	p.root = p.attach[root]
	if p.gammaRoot == p.root.Box {
		return
	}
	p.gamma, p.emptyOK = p.builder.RootAccepting(&circuit.Circuit{Root: p.root.Box})
	p.count = p.counts.Gamma(p.root.Box, p.gamma, p.emptyOK)
	p.gammaRoot = p.root.Box
	if tr.on {
		*calls++
	}
}

// gammaProbeCalls is the batch size of the γ probe.
const gammaProbeCalls = 1000

// probeGamma times RootAccepting and the counting Gamma fold on every
// pipeline's current root, gammaProbeCalls calls per batch: both take
// well under a microsecond, too little to time one call at a time.
func (rp *replica) probeGamma() {
	for _, p := range rp.pipes {
		c := &circuit.Circuit{Root: p.root.Box}
		start := time.Now()
		for range gammaProbeCalls {
			p.builder.RootAccepting(c)
		}
		rp.gammaProbe[0] += time.Since(start)
		start = time.Now()
		for range gammaProbeCalls {
			p.counts.Gamma(p.root.Box, p.gamma, p.emptyOK)
		}
		rp.gammaProbe[1] += time.Since(start)
		rp.gammaProbeN += gammaProbeCalls
	}
}

// keyedDiff is the engine's diff for ambiguous pipelines: drain both
// versions keyed by assignment and compare.
func keyedDiff(oldRoot *enumerate.IndexedBox, oldGamma bitset.Set, oldEmpty bool,
	newRoot *enumerate.IndexedBox, newGamma bitset.Set, newEmpty bool) (added, removed []tree.Assignment) {
	drain := func(root *enumerate.IndexedBox, gamma bitset.Set, emptyOK bool) map[string]tree.Assignment {
		out := map[string]tree.Assignment{}
		for a := range enumerate.Assignments(root, gamma, emptyOK, enumerate.ModeIndexed) {
			out[a.Key()] = a
		}
		return out
	}
	oldSet, newSet := drain(oldRoot, oldGamma, oldEmpty), drain(newRoot, newGamma, newEmpty)
	for k, a := range newSet {
		if _, ok := oldSet[k]; !ok {
			added = append(added, a)
		}
	}
	for k, a := range oldSet {
		if _, ok := newSet[k]; !ok {
			removed = append(removed, a)
		}
	}
	byKey := func(a, b tree.Assignment) int {
		switch ka, kb := a.Key(), b.Key(); {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	}
	slices.SortFunc(added, byKey)
	slices.SortFunc(removed, byKey)
	return added, removed
}

// publish replays one single-edit batch: forest edit and drain, every
// pipeline's repair, then the subscribed pipeline's answer diff.
func (rp *replica) publish(u engine.Update, st *replayStats) (tree.NodeID, error) {
	tr := rp.tr
	tr.begin(spForestEdit)
	id, err := rp.apply(u)
	tr.end()
	if err != nil {
		return id, err
	}
	tr.begin(spForestDrain)
	d := rp.f.DrainDelta()
	tr.end()
	st.fresh += len(d.Fresh)
	sub := rp.pipes[rp.sub]
	oldRoot, oldGamma, oldEmpty := sub.root, sub.gamma, sub.emptyOK
	for _, p := range rp.pipes {
		tr.begin(spPipeline)
		p.replay(d, tr, st)
		p.refresh(d.Root, tr, &rp.gammaCalls)
		tr.end()
	}
	rp.lastAdd, rp.lastRem = nil, nil
	if oldRoot == sub.root && oldEmpty == sub.emptyOK && oldGamma.Equal(sub.gamma) {
		return id, nil
	}
	if sub.unambiguous {
		tr.begin(spDiff)
		rp.lastAdd, rp.lastRem = rp.differ.Diff(oldRoot, oldGamma, oldEmpty, sub.root, sub.gamma, sub.emptyOK)
		tr.end()
	} else {
		tr.begin(spFallback)
		rp.lastAdd, rp.lastRem = keyedDiff(oldRoot, oldGamma, oldEmpty, sub.root, sub.gamma, sub.emptyOK)
		tr.end()
	}
	st.diffAnswers += len(rp.lastAdd) + len(rp.lastRem)
	return id, nil
}

// toggle alternates tracing per operation kind, so traced and untraced
// operations come from the same stationary stream; the difference of
// their median publish times is the tracing overhead.
func (rp *replica) toggle(k opKind) bool {
	rp.tr.on = rp.ops[k]%2 == 0
	return rp.tr.on
}

func (rp *replica) noteWall(k opKind, on bool, d time.Duration) {
	rp.ops[k]++
	i := 0
	if on {
		i = 1
		rp.tracedWall += d
	}
	if k == opEdit {
		rp.publishWall[i] = append(rp.publishWall[i], d.Nanoseconds())
	}
}

func sameKeys(a, b []tree.Assignment) bool {
	return slices.EqualFunc(a, b, func(x, y tree.Assignment) bool { return x.Key() == y.Key() })
}

// edit replays the engine's last edit and checks the replica against the
// engine's publication: inserted node ID, every pipeline's derivation
// count, and the subscribed pipeline's diff against the received delta.
func (rp *replica) edit(o op, m *engine.MultiSnapshot, ids []engine.QueryID, got []engine.Delta, publish, dispatch time.Duration) error {
	on := rp.toggle(opEdit)
	var scratch replayStats
	st := &scratch
	if on {
		st = &rp.stats
		rp.traced++
		rp.publishNs += publish.Nanoseconds()
		rp.dispatchNs += dispatch.Nanoseconds()
		rp.gammaSlots += len(rp.pipes)
	}
	rp.edits++
	start := time.Now()
	rp.tr.beginOp(spPublish)
	id, err := rp.publish(o.upd, st)
	rp.tr.end()
	rp.noteWall(opEdit, on, time.Since(start))
	if err != nil {
		return fmt.Errorf("replica edit %v: %w", o.upd.Op, err)
	}
	if id != o.want {
		return fmt.Errorf("replica assigned node %d, engine %d", id, o.want)
	}
	for i, p := range rp.regs {
		if want := m.Query(ids[i]).Derivations(); rp.pipes[p].count.Cmp(want) != 0 {
			return fmt.Errorf("replica count of %s is %s, engine has %s", rp.pipes[p].name, rp.pipes[p].count, want)
		}
	}
	if len(got) != 1 || got[0].Coalesced || got[0].Resync != nil {
		return fmt.Errorf("expected one plain delta per edit, got %d", len(got))
	}
	if !sameKeys(got[0].Added, rp.lastAdd) || !sameKeys(got[0].Removed, rp.lastRem) {
		return fmt.Errorf("replica diff (+%d -%d) differs from the engine's delta (+%d -%d)",
			len(rp.lastAdd), len(rp.lastRem), len(got[0].Added), len(got[0].Removed))
	}
	return nil
}

// page serves Page(offset, limit) from the read pipeline: by ranked
// descent (one descender per rank, so every rope stays valid until the
// batch is materialized) when the automaton is unambiguous, otherwise by
// enumerating offset+limit answers. With check set it compares the page
// with the engine's.
func (rp *replica) page(offset, limit int, s *engine.Snapshot, check bool) error {
	p := rp.pipes[rp.read]
	on := rp.toggle(opPage)
	start := time.Now()
	rp.tr.beginOp(spPage)
	var out []tree.Assignment
	if p.unambiguous {
		end := min(offset+limit, int(p.count.Int64()))
		k := max(0, end-offset)
		for len(rp.descs) < k {
			rp.descs = append(rp.descs, enumerate.NewDescender())
		}
		rp.ropes = rp.ropes[:0]
		rp.tr.begin(spAt)
		for j := range k {
			r, err := rp.descs[j].AtInt(p.root, p.gamma, p.emptyOK, enumerate.ModeIndexed, offset+j)
			if err != nil {
				rp.tr.end()
				rp.tr.end()
				return fmt.Errorf("replica rank %d: %w", offset+j, err)
			}
			rp.ropes = append(rp.ropes, r)
		}
		rp.tr.end()
		out = rp.materialize(rp.ropes, on)
		if on {
			rp.rankCalls += k
		}
	} else {
		// The engine's Page materializes every enumerated answer, the
		// skipped ones too; so does the replica, in one batch.
		out = rp.materialize(rp.enumerate(p, offset+limit, on), on)
		out = out[min(offset, len(out)):]
	}
	rp.tr.end()
	rp.noteWall(opPage, on, time.Since(start))
	if check && !sameKeys(out, s.Page(offset, limit)) {
		return fmt.Errorf("replica page at offset %d differs from the engine's", offset)
	}
	return nil
}

// enumerate steps the pipeline's Ropes iterator up to limit times
// (all answers when limit < 0) and returns the ropes; they are
// persistent, so they can be materialized afterwards in one batch.
func (rp *replica) enumerate(p *rpipe, limit int, on bool) []*enumerate.Rope {
	rp.ropes = rp.ropes[:0]
	rp.tr.begin(spNext)
	for r := range enumerate.Ropes(p.root, p.gamma, p.emptyOK, enumerate.ModeIndexed) {
		if len(rp.ropes) == limit {
			break
		}
		rp.ropes = append(rp.ropes, r)
	}
	rp.tr.end()
	if on {
		rp.steps += len(rp.ropes)
	}
	return rp.ropes
}

// materialize flattens a batch of ropes (nil is the empty assignment).
func (rp *replica) materialize(ropes []*enumerate.Rope, on bool) []tree.Assignment {
	out := make([]tree.Assignment, len(ropes))
	rp.tr.begin(spMaterialize)
	for j, r := range ropes {
		if r == nil {
			out[j] = tree.Assignment{}
		} else {
			out[j] = r.Materialize()
		}
	}
	rp.tr.end()
	if on {
		rp.materialized += len(ropes)
	}
	return out
}

// crossCheckDiff compares, for an unambiguous subscribed pipeline, the
// co-descent diff from the last checkpoint to now with the keyed
// full-drain diff, an independent algorithm; the latter's time is what
// the engine's fallback diff would cost on this document. (On an
// ambiguous pipeline the keyed diff runs on every publish already.)
func (rp *replica) crossCheckDiff() error {
	sub := rp.pipes[rp.sub]
	if !sub.unambiguous {
		return nil
	}
	old, cur := rp.mark, sub.version()
	rp.mark = cur
	start := time.Now()
	add, rem := keyedDiff(old.root, old.gamma, old.emptyOK, cur.root, cur.gamma, cur.emptyOK)
	rp.fallbackProbe += time.Since(start)
	rp.fallbackN++
	dAdd, dRem := rp.differ.Diff(old.root, old.gamma, old.emptyOK, cur.root, cur.gamma, cur.emptyOK)
	if !sameKeys(add, dAdd) || !sameKeys(rem, dRem) {
		return fmt.Errorf("co-descent diff (+%d -%d) differs from the keyed diff (+%d -%d) since the last checkpoint",
			len(dAdd), len(dRem), len(add), len(rem))
	}
	return nil
}

// drain enumerates and materializes the read pipeline's answers once.
func (rp *replica) drain(want int) error {
	p := rp.pipes[rp.read]
	on := rp.toggle(opDrain)
	start := time.Now()
	rp.tr.beginOp(spDrain)
	n := len(rp.materialize(rp.enumerate(p, -1, on), on))
	rp.tr.end()
	rp.noteWall(opDrain, on, time.Since(start))
	if n != want {
		return fmt.Errorf("replica drained %d answers, engine has %d", n, want)
	}
	return nil
}

// checkpoint compares the replica's document and every pipeline's full
// answer set with the engine's.
func (rp *replica) checkpoint(set *engine.TreeSet, ids []engine.QueryID) error {
	rp.probeGamma()
	if err := rp.crossCheckDiff(); err != nil {
		return err
	}
	if rp.f.Tree.String() != set.Tree().String() {
		return fmt.Errorf("replica document diverged from the engine's")
	}
	for i, pi := range rp.regs {
		p := rp.pipes[pi]
		var mine []tree.Assignment
		for a := range enumerate.Assignments(p.root, p.gamma, p.emptyOK, enumerate.ModeIndexed) {
			mine = append(mine, a)
		}
		if err := checkAnswers("replica "+p.name, mine, keysOf(set.Snapshot().Query(ids[i]).All())); err != nil {
			return err
		}
	}
	return nil
}
