package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/enumerate"
	"repro/internal/tree"
)

// Delta is one push notification of a standing query's answer change:
// the answers added and removed by the publication(s) it covers, carried
// to subscribers so that a monitor watching a large answer set pays per
// publication for the CHANGE, not for a full re-read (DESIGN.md §11).
//
// A Delta composes the consumer's materialized answer set from the
// previous delivery to Version: apply Removed, then Added. Deliveries
// are contiguous — every publication of the engine is covered by exactly
// one received Delta — so a consumer that starts from its subscription's
// initial resync and folds every Delta in order mirrors the engine's
// published answer set exactly.
//
// When the consumer is slower than the writer, consecutive publications
// are coalesced into one Delta (Coalesced set): the composition of the
// missed deltas, with internal churn cancelled. If the coalesced change
// outgrows the engine's resync limit, the Delta degrades to a RESYNC:
// Added/Removed are nil and Resync holds the latest published Snapshot —
// the consumer rebuilds its set from it (cheaper than shipping a diff
// larger than the answer set). The first Delta of every subscription is
// such a resync, establishing the base version.
type Delta struct {
	// Version is the publication sequence number this Delta brings the
	// consumer up to (MultiSnapshot.Version of the covered publication,
	// or of the latest covered one when Coalesced).
	Version uint64
	// Added and Removed are the composed answer diff, sorted by
	// assignment key. Shared across subscribers: read-only. Both nil
	// when Resync is set.
	Added   []tree.Assignment
	Removed []tree.Assignment
	// Coalesced reports that this Delta covers more than one publication
	// (the consumer fell behind and intermediate deltas were merged).
	Coalesced bool
	// Resync, when non-nil, replaces the diff: the consumer must rebuild
	// its materialized set from this Snapshot (see above).
	Resync *Snapshot
}

const (
	// deltaChanCap bounds each subscriber's delivery channel; combined
	// with the single merged pending slot it caps the per-subscriber
	// queue without ever blocking the writer.
	deltaChanCap = 8
	// defaultDeltaResyncLimit is the coalesced-diff size above which a
	// slow consumer is resynced from a snapshot instead
	// (Engine.SetDeltaResyncLimit overrides).
	defaultDeltaResyncLimit = 4096
)

// subscriber is one Subscribe registration: a bounded delivery channel
// fed by a dedicated goroutine off a single merged pending slot. The
// writer (engine publication, under e.mu) only ever touches the pending
// slot — it never blocks on the channel — and the delivery goroutine
// drains the slot into the channel, blocking on the CONSUMER, not the
// writer. Closing is driven by Unregister: closed stops the merge,
// done unblocks an in-flight channel send, and the delivery goroutine
// closes ch on its way out (channels are closed by their only sender).
type subscriber struct {
	ch   chan Delta
	done chan struct{}

	mu          sync.Mutex
	cond        sync.Cond
	pending     *Delta
	closed      bool
	resyncLimit int
}

func newSubscriber(resyncLimit int, seed Delta) *subscriber {
	s := &subscriber{
		ch:          make(chan Delta, deltaChanCap),
		done:        make(chan struct{}),
		pending:     &seed,
		resyncLimit: resyncLimit,
	}
	s.cond.L = &s.mu
	go s.deliver()
	return s
}

// deliver is the subscriber's delivery loop: move the merged pending
// Delta into the channel, block on the consumer only.
func (s *subscriber) deliver() {
	for {
		s.mu.Lock()
		for s.pending == nil && !s.closed {
			s.cond.Wait()
		}
		d := s.pending
		s.pending = nil
		closed := s.closed
		s.mu.Unlock()
		if d != nil {
			if closed {
				// Final flush is best-effort: the consumer is likely gone.
				select {
				case s.ch <- *d:
				default:
				}
			} else {
				select {
				case s.ch <- *d:
				case <-s.done:
					close(s.ch)
					return
				}
				continue
			}
		}
		close(s.ch)
		return
	}
}

// stop closes the subscription: no further merges, the delivery
// goroutine flushes and closes the channel. Called under e.mu (like
// offer), so a stopped subscriber is never offered again.
func (s *subscriber) stop() {
	s.mu.Lock()
	s.closed = true
	s.cond.Signal()
	s.mu.Unlock()
	close(s.done)
}

// offer hands one publication's delta to the subscriber, never
// blocking: an empty pending slot takes it as-is; a still-undelivered
// pending is COALESCED — the two diffs composed with churn cancelled,
// degrading to a snapshot resync when the composition outgrows the
// limit. Returns whether it coalesced. Called under e.mu.
func (s *subscriber) offer(version uint64, added, removed []tree.Assignment, snap *Snapshot) (coalesced bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.pending == nil {
		s.pending = &Delta{Version: version, Added: added, Removed: removed}
		s.cond.Signal()
		return false
	}
	p := s.pending
	p.Version = version
	p.Coalesced = true
	if p.Resync == nil {
		p.Added, p.Removed = composeDelta(p.Added, p.Removed, added, removed)
		if len(p.Added)+len(p.Removed) > s.resyncLimit {
			p.Added, p.Removed = nil, nil
			p.Resync = snap
		}
	} else {
		p.Resync = snap
	}
	s.cond.Signal()
	return true
}

// composeDelta composes two consecutive diffs into one: the later diff's
// removals cancel earlier additions and vice versa, so an answer that
// appeared and disappeared while the consumer was away never reaches it.
// Inputs are read-only (they may be shared with other subscribers); the
// result is fresh, sorted by key.
func composeDelta(added1, removed1, added2, removed2 []tree.Assignment) (added, removed []tree.Assignment) {
	am := make(map[string]tree.Assignment, len(added1)+len(added2))
	rm := make(map[string]tree.Assignment, len(removed1)+len(removed2))
	for _, a := range added1 {
		am[a.Key()] = a
	}
	for _, a := range removed1 {
		rm[a.Key()] = a
	}
	for _, a := range removed2 {
		k := a.Key()
		if _, ok := am[k]; ok {
			delete(am, k)
		} else {
			rm[k] = a
		}
	}
	for _, a := range added2 {
		k := a.Key()
		if _, ok := rm[k]; ok {
			delete(rm, k)
		} else {
			am[k] = a
		}
	}
	added = make([]tree.Assignment, 0, len(am))
	for _, a := range am {
		added = append(added, a)
	}
	removed = make([]tree.Assignment, 0, len(rm))
	for _, a := range rm {
		removed = append(removed, a)
	}
	tree.SortByKey(added)
	tree.SortByKey(removed)
	return added, removed
}

// Subscribe registers a push consumer for one standing query's answer
// deltas. The returned channel delivers one Delta per publication (also
// empty ones, so consumers can track the version deterministically),
// coalescing when the consumer falls behind; its FIRST Delta is always
// a snapshot resync establishing the base version. The channel is
// closed when the query is unregistered. The writer never blocks on a
// subscriber: backpressure turns into coalescing, and past the resync
// limit into a fresh snapshot resync.
func (e *Engine) Subscribe(id QueryID) (<-chan Delta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.pipes[id]; !ok {
		return nil, fmt.Errorf("engine: query %d is not registered", id)
	}
	cur := e.snap.Load()
	seed := Delta{Version: cur.Version(), Resync: cur.Query(id)}
	limit := e.deltaResyncLimit
	if limit <= 0 {
		limit = defaultDeltaResyncLimit
	}
	s := newSubscriber(limit, seed)
	if e.subs == nil {
		e.subs = map[QueryID][]*subscriber{}
	}
	e.subs[id] = append(e.subs[id], s)
	return s.ch, nil
}

// SetDeltaResyncLimit sets the coalesced-diff size above which slow
// subscribers are resynced from a snapshot instead of receiving the
// composed diff (0 restores the default). Applies to subscriptions
// created after the call.
func (e *Engine) SetDeltaResyncLimit(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deltaResyncLimit = n
}

// closeSubsLocked closes every subscriber of one query (Unregister).
// Callers hold e.mu.
func (e *Engine) closeSubsLocked(id QueryID) {
	for _, s := range e.subs[id] {
		s.stop()
	}
	delete(e.subs, id)
}

// dispatchDeltas is the publication-time hook of the delta stream
// (called by applyAndPublish under e.mu, after the worker pool finished
// and before the MultiSnapshot is installed): per DISTINCT subscribed
// pipeline snapshot, compute the answer diff old→new once and offer it
// to every subscriber of every QueryID projecting that snapshot — twins
// share one diff like they share one repair.
func (e *Engine) dispatchDeltas(prev, next *MultiSnapshot) {
	if len(e.subs) == 0 {
		return
	}
	type diffRes struct {
		added, removed []tree.Assignment
	}
	cache := map[*Snapshot]diffRes{}
	for id, subs := range e.subs {
		ns := next.snaps[id]
		if ns == nil {
			continue // unregistering publication: closeSubsLocked handles it
		}
		res, ok := cache[ns]
		if !ok {
			res.added, res.removed = e.computeDelta(prev.snaps[id], ns)
			cache[ns] = res
			e.answersAdded += int64(len(res.added))
			e.answersRemoved += int64(len(res.removed))
		}
		for _, s := range subs {
			e.deltasEmitted++
			if s.offer(next.version, res.added, res.removed, ns) {
				e.deltasCoalesced++
			}
		}
	}
}

// computeDelta diffs one query's consecutive published snapshots.
// Short-circuit: a publication that left this pipeline's root, γ and
// emptyOK untouched (edits under other queries' regions never exist —
// but registrations, unregistrations and fully-reused repairs do)
// changed nothing; ns inherits ps's answer record. Then the count-guided
// co-descent (enumerate.Differ) for unambiguous automata —
// O((|added|+|removed|)·log n·poly|Q|) by pruning pointer-shared
// regions — and the keyed diff as the fallback for ambiguous ones (whose
// answers may derive along several routes, breaking the descent's
// cancellation argument): drain ns into its answer record and merge it
// against ps's, which the previous publication's diff left on ps (only
// a ps without one — the first publication after Subscribe — is drained
// too). Called under e.mu before ns is installed, so the record and the
// seeded count are written before any reader can see ns.
func (e *Engine) computeDelta(ps, ns *Snapshot) (added, removed []tree.Assignment) {
	if ps == ns {
		return nil, nil
	}
	if ps != nil && ps.root == ns.root && ps.emptyOK == ns.emptyOK && ps.gamma.Equal(ns.gamma) {
		if ps.answers != nil {
			ns.setAnswers(ps.answers)
		}
		return nil, nil
	}
	if ns.unambiguous {
		if e.differ == nil {
			e.differ = enumerate.NewDiffer(enumerate.ModeIndexed)
		}
		if ps == nil {
			return e.differ.Diff(nil, bitset.NewSet(0), false, ns.root, ns.gamma, ns.emptyOK)
		}
		return e.differ.Diff(ps.root, ps.gamma, ps.emptyOK, ns.root, ns.gamma, ns.emptyOK)
	}
	e.keyedDiffs++
	var old *answerSet
	switch {
	case ps == nil:
		old = emptyAnswers
	case ps.answers != nil:
		old = ps.answers
	default:
		old = drainAnswers(ps, nil)
		e.keyedDiffAnswers += int64(old.len())
	}
	cur := drainAnswers(ns, old)
	e.keyedDiffAnswers += int64(cur.len())
	ns.setAnswers(cur)
	return mergeAnswers(old, cur)
}

// answerSet is one snapshot's answers as the keyed diff drained them,
// the record it leaves on the snapshot for the next publication's diff
// and for the snapshot's non-direct reads (snapshot.go): every answer's
// canonical singletons (tree.Assignment normal form) back to back in
// flat, in Results order; offs, the n+1 boundaries of the answers' spans
// of flat, so answer i is flat[offs[i]:offs[i+1]]; and byKey, the answer
// indices sorted by tree.CompareKeys, which the merge walks. It holds no
// frozen structure, so a record never keeps a superseded version's
// boxes alive.
type answerSet struct {
	flat  []tree.Singleton
	offs  []int
	byKey []int
}

// emptyAnswers is the record of no answers.
var emptyAnswers = &answerSet{offs: []int{0}}

func (a *answerSet) len() int { return len(a.offs) - 1 }

// at is answer i in Results order, aliasing flat: for the writer's merge
// and Validate only, never for callers.
func (a *answerSet) at(i int) tree.Assignment {
	lo, hi := a.offs[i], a.offs[i+1]
	return a.flat[lo:hi:hi]
}

// keyed is the i-th answer in key order.
func (a *answerSet) keyed(i int) tree.Assignment { return a.at(a.byKey[i]) }

// appendTo appends caller-owned copies of answers [lo, hi) to dst: one
// fresh block holds their singletons, and each answer is a full-capped
// window of it, so appending to one answer never writes into the next,
// and nothing a caller does reaches flat. The empty assignment comes out
// as a non-nil empty slice.
func (a *answerSet) appendTo(dst []tree.Assignment, lo, hi int) []tree.Assignment {
	base := a.offs[lo]
	block := make([]tree.Singleton, a.offs[hi]-base)
	copy(block, a.flat[base:a.offs[hi]])
	for i := lo; i < hi; i++ {
		x, y := a.offs[i]-base, a.offs[i+1]-base
		dst = append(dst, block[x:y:y])
	}
	return dst
}

// keyedAnswer is one answer's sort entry while byKey is built: its key
// prefix (tree.Assignment.KeyPrefix) and its index.
type keyedAnswer struct {
	prefix uint64
	i      int
}

// drainAnswers enumerates s's answers into a fresh record, walking the
// frozen structure directly so the write-path diff does not inflate the
// read-path counters. The buffers are sized from hint, the other
// version's record (an edit changes few answers); nil for none.
func drainAnswers(s *Snapshot, hint *answerSet) *answerSet {
	a := &answerSet{}
	if hint != nil {
		a.flat = make([]tree.Singleton, 0, len(hint.flat)+len(hint.flat)/16+4)
		a.offs = make([]int, 0, len(hint.offs)+len(hint.offs)/16+4)
	}
	a.offs = append(a.offs, 0)
	for r := range enumerate.Ropes(s.root, s.gamma, s.emptyOK, enumerate.ModeIndexed) {
		a.flat = r.AppendTo(a.flat)
		a.offs = append(a.offs, len(a.flat))
	}
	// Sort by the integer prefix first, so that only answers sharing
	// their first node compare whole keys.
	keyed := make([]keyedAnswer, a.len())
	for i := range keyed {
		keyed[i] = keyedAnswer{a.at(i).KeyPrefix(), i}
	}
	slices.SortFunc(keyed, func(x, y keyedAnswer) int {
		if x.prefix != y.prefix {
			return cmp.Compare(x.prefix, y.prefix)
		}
		return tree.CompareKeys(a.at(x.i), a.at(y.i))
	})
	a.byKey = make([]int, len(keyed))
	for k, e := range keyed {
		a.byKey[k] = e.i
	}
	return a
}

// mergeAnswers is the keyed diff of two records: one merge of the two
// key orders, materializing only the answers on one side. Both results
// come out sorted by key, the order tree.SortByKey gives.
func mergeAnswers(old, cur *answerSet) (added, removed []tree.Assignment) {
	own := func(a tree.Assignment) tree.Assignment {
		return append(make(tree.Assignment, 0, len(a)), a...)
	}
	i, j := 0, 0
	for i < old.len() || j < cur.len() {
		c := 0
		switch {
		case j == cur.len():
			c = -1
		case i == old.len():
			c = 1
		default:
			c = tree.CompareKeys(old.keyed(i), cur.keyed(j))
		}
		switch {
		case c < 0:
			removed = append(removed, own(old.keyed(i)))
			i++
		case c > 0:
			added = append(added, own(cur.keyed(j)))
			j++
		default:
			i++
			j++
		}
	}
	return added, removed
}
