package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
)

// counts tallies attempted and failed operations per kind.
type counts struct{ attempted, failed [3]int }

func (c *counts) note(k opKind, ok bool) {
	c.attempted[k]++
	if !ok {
		c.failed[k]++
	}
}

func (c *counts) totals() (attempted, failed int) {
	for k := range c.attempted {
		attempted += c.attempted[k]
		failed += c.failed[k]
	}
	return attempted, failed
}

// delayBlock is how many consecutive gaps between drained answers are
// timed together: one gap takes about a microsecond, too little to time
// alone.
const delayBlock = 16

// pageSample is a served page kept for the oracle gate.
type pageSample struct {
	snap   *engine.Snapshot
	offset int
	page   []tree.Assignment
}

// gcWindow sums runtime counters over the rounds only, so the forced
// collections that settle the heap between rounds do not count.
type gcWindow struct {
	gcCPU, totalCPU, cycles float64
	samples                 []metrics.Sample
}

func newGCWindow() *gcWindow {
	return &gcWindow{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (g *gcWindow) read() [3]float64 {
	metrics.Read(g.samples)
	var out [3]float64
	for i, s := range g.samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

func (g *gcWindow) add(before, after [3]float64) {
	g.gcCPU += after[0] - before[0]
	g.totalCPU += after[1] - before[1]
	g.cycles += after[2] - before[2]
}

// runner drives one workload's closed loop against the real engine:
// one client goroutine that sends the next operation only after the
// previous one completed (for edits: after the subscriber received the
// edit's delta).
type runner struct {
	sp  spec
	mir *mirror
	set *engine.TreeSet
	ids []engine.QueryID

	deltas <-chan engine.Delta
	folded answerSet // the client's answer set, folded from deltas
	got    []engine.Delta

	ops    counts
	update []int64 // ns, submit to delta received
	page   []int64 // ns per Page call
	delays []int64 // ns per delayBlock consecutive gaps between drained answers
	timed  time.Duration
	rounds int
	gc     *gcWindow
	// heap is the live heap after the mid-run checkpoint, when
	// the document had heapNodes nodes.
	heap      uint64
	heapNodes int

	samples   []pageSample
	pageIndex int
	fail      error         // first oracle mismatch
	checking  time.Duration // spent in oracle checkpoints

	rep *replica // traced phase only
}

// buildEngine is one preprocessing pass: the term build plus every
// registration (translation, homogenisation, unambiguity check, build
// walk), until the published snapshot holds them all.
func buildEngine(t *tree.Unranked, sp spec) (*engine.TreeSet, []engine.QueryID, error) {
	queries := make([]*tva.Unranked, len(sp.regs))
	for i, name := range sp.regs {
		q, err := queryByName(name)
		if err != nil {
			return nil, nil, err
		}
		queries[i] = q
	}
	set := engine.NewTreeSet(t)
	ids := make([]engine.QueryID, len(queries))
	for i, q := range queries {
		id, err := set.Register(q, engine.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("register %s: %w", sp.regs[i], err)
		}
		ids[i] = id
	}
	return set, ids, nil
}

// settle runs a collection so a timed block starts from a quiescent
// heap.
func settle() { runtime.GC() }

// newRunner generates the document, seeds the script, preprocesses the
// document passes times (each pass on a fresh copy, timed from the
// generated tree to the snapshot holding every registration), keeps the
// last engine and subscribes to it. It returns the runner and the pass
// times in seconds.
func newRunner(sp spec, seed int64, passes int) (*runner, []float64, error) {
	doc, err := newDocument(sp.nodes)
	if err != nil {
		return nil, nil, err
	}
	r := &runner{sp: sp, mir: newMirror(doc, sp, rand.New(rand.NewSource(seed))), gc: newGCWindow()}
	var setup []float64
	// Warm up: the first second of passes runs measurably slower (in one
	// probe a 2,000-node pass fell from 45 ms to 12 ms over the first
	// ten), so passes are timed only after a second of untimed ones.
	if passes > 1 {
		for start := time.Now(); time.Since(start) < time.Second; {
			if _, _, err := buildEngine(doc.Clone(), sp); err != nil {
				return nil, nil, err
			}
		}
	}
	for range passes {
		r.set = nil
		t := doc.Clone()
		settle()
		start := time.Now()
		set, ids, err := buildEngine(t, sp)
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		r.set, r.ids = set, ids
	}
	ch, err := r.set.Subscribe(r.ids[sp.subscribed])
	if err != nil {
		return nil, nil, err
	}
	r.deltas = ch
	d, ok := <-ch
	if !ok || d.Resync == nil {
		return nil, nil, fmt.Errorf("subscription did not start with a resync")
	}
	r.folded = foldDelta(nil, d)
	return r, setup, nil
}

func (r *runner) snap(reg int) *engine.Snapshot { return r.set.Snapshot().Query(r.ids[reg]) }

// answerCount is the read registration's answer count: O(1) on direct
// access, otherwise the client's folded set (the read and subscribed
// registrations coincide on every workload without direct access).
func (r *runner) answerCount(s *engine.Snapshot) int {
	if s.DirectAccess() {
		return s.Count()
	}
	return len(r.folded)
}

// run executes rounds of the script until dur has passed outside the
// oracle checkpoints and at least checkRound rounds are done. The
// mid-run checkpoint follows round checkRound, and the heap is read
// right after it; the last checkpoint follows the last round.
func (r *runner) run(dur time.Duration, checkRound int) error {
	start := time.Now()
	for r.rounds < checkRound || time.Since(start)-r.checking < dur {
		script, err := r.mir.round(r.sp)
		if err != nil {
			return fmt.Errorf("script generation: %w", err)
		}
		r.execute(script)
		if r.fail != nil {
			return r.fail
		}
		r.rounds++
		if r.rounds == checkRound {
			if err := r.checkpoint(); err != nil {
				return err
			}
			r.heap, r.heapNodes = liveHeap(), r.set.Tree().Size()
		}
	}
	return r.checkpoint()
}

// execute runs one round. The heap is settled before the round;
// runtime counters are summed over the rounds.
func (r *runner) execute(script []op) {
	settle()
	before := r.gc.read()
	defer func() { r.gc.add(before, r.gc.read()) }()
	for _, o := range script {
		switch o.kind {
		case opEdit:
			r.doEdit(o)
		case opPage:
			r.doPage(o)
		case opDrain:
			r.doDrain()
		}
		if r.fail != nil {
			return
		}
	}
}

func (r *runner) doEdit(o op) {
	start := time.Now()
	m, ids, err := r.set.ApplyBatch([]engine.Update{o.upd})
	ret := time.Now()
	r.got = r.got[:0]
	if err == nil {
		for d := range r.deltas {
			r.got = append(r.got, d)
			if d.Version >= m.Version() {
				break
			}
		}
	}
	end := time.Now()
	r.timed += end.Sub(start)
	ok := err == nil && len(r.got) > 0 && r.got[len(r.got)-1].Version == m.Version() &&
		(o.want == tree.InvalidNode || ids[0] == o.want)
	r.ops.note(opEdit, ok)
	if !ok {
		return
	}
	r.update = append(r.update, end.Sub(start).Nanoseconds())
	for _, d := range r.got {
		r.folded = foldDelta(r.folded, d)
	}
	if r.rep != nil {
		t := time.Now()
		r.fail = r.rep.edit(o, m, r.ids, r.got, ret.Sub(start), end.Sub(ret))
		r.timed += time.Since(t)
	}
}

func (r *runner) doPage(o op) {
	s := r.snap(r.sp.read)
	n := r.answerCount(s)
	offset := int(o.frac * float64(max(0, n-pageLimit)))
	want := min(pageLimit, n-offset)
	r.pageIndex++
	if r.rep != nil {
		// Traced phase: the replica serves the page; the engine's page
		// is only the reference it is compared with.
		start := time.Now()
		r.fail = r.rep.page(offset, pageLimit, s, r.pageIndex%16 == 0)
		r.timed += time.Since(start)
		r.ops.note(opPage, r.fail == nil)
		return
	}
	start := time.Now()
	page := s.Page(offset, pageLimit)
	d := time.Since(start)
	r.timed += d
	r.page = append(r.page, d.Nanoseconds())
	r.ops.note(opPage, len(page) == want)
	// Keep up to 8 pages for the oracle: every 97th page, plus the pages
	// after it served from the same snapshot, so checking them needs few
	// All() calls.
	sameSnap := len(r.samples) > 0 && r.samples[len(r.samples)-1].snap == s
	if len(r.samples) < 8 && (r.pageIndex%97 == 0 || sameSnap) {
		r.samples = append(r.samples, pageSample{snap: s, offset: offset, page: page})
	}
}

func (r *runner) doDrain() {
	s := r.snap(r.sp.read)
	want := r.answerCount(s)
	if r.rep != nil {
		start := time.Now()
		r.fail = r.rep.drain(want)
		r.timed += time.Since(start)
		r.ops.note(opDrain, r.fail == nil)
		return
	}
	n := 0
	var mark time.Time
	start := time.Now()
	for range s.Results() {
		if n == 0 {
			mark = time.Now()
		} else if n%delayBlock == 0 {
			now := time.Now()
			r.delays = append(r.delays, now.Sub(mark).Nanoseconds())
			mark = now
		}
		n++
	}
	r.timed += time.Since(start)
	r.ops.note(opDrain, n == want)
}

// checkpoint is the oracle gate, run outside every timed interval: the
// engine's document equals the script's mirror; every registration's
// answers equal a rebuild from scratch; the client's folded deltas
// equal the subscribed registration's answers; sampled pages equal the
// same slice of All() on the snapshot they were served from.
func (r *runner) checkpoint() error {
	defer func(start time.Time) { r.checking += time.Since(start) }(time.Now())
	if got, want := r.set.Tree().String(), r.mir.t.String(); got != want {
		return fmt.Errorf("engine document diverged from the script (%d vs %d nodes)", r.set.Tree().Size(), r.mir.t.Size())
	}
	oracle := map[string]answerSet{}
	for i, name := range r.sp.regs {
		if _, done := oracle[name]; done {
			continue
		}
		want, err := oracleAnswers(r.mir.t, name)
		if err != nil {
			return err
		}
		oracle[name] = want
		s := r.snap(i)
		all := s.All()
		if err := checkAnswers("registration "+name, all, want); err != nil {
			return err
		}
		if s.DirectAccess() && s.Count() != len(all) {
			return fmt.Errorf("registration %s: Count %d, All returned %d", name, s.Count(), len(all))
		}
	}
	if err := checkSet("folded deltas of "+r.sp.regs[r.sp.subscribed], r.folded, oracle[r.sp.regs[r.sp.subscribed]]); err != nil {
		return err
	}
	alls := map[*engine.Snapshot][]tree.Assignment{}
	for _, p := range r.samples {
		all, ok := alls[p.snap]
		if !ok {
			all = p.snap.All()
			alls[p.snap] = all
		}
		if err := checkPage(all, p.page, p.offset); err != nil {
			return err
		}
	}
	clear(r.samples) // drop the snapshots they hold before the heap is read
	r.samples = r.samples[:0]
	if r.rep != nil {
		return r.rep.checkpoint(r.set, r.ids)
	}
	return nil
}

// close unregisters every query, which stops the subscriber's delivery
// goroutine and closes its channel.
func (r *runner) close() {
	for _, id := range r.ids {
		_ = r.set.Unregister(id) // registered above: cannot fail
	}
	for range r.deltas {
	}
}

// heapAfterGC drops everything but the engine, collects, and returns
// the live heap and the document size.
func (r *runner) heapAfterGC() (heap uint64, nodes int) {
	set := r.set
	nodes = set.Tree().Size()
	r.mir, r.samples, r.update, r.page, r.delays, r.folded, r.got = nil, nil, nil, nil, nil, nil, nil
	heap = liveHeap()
	runtime.KeepAlive(set)
	return heap, nodes
}

// liveHeap collects and returns the bytes of live heap objects.
func liveHeap() uint64 {
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	i := int(math.Ceil(float64(len(xs))*q)) - 1
	return float64(xs[max(0, min(i, len(xs)-1))])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
