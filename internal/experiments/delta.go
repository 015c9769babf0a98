package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/tree"
	"repro/internal/tva"
	"repro/internal/workload"
)

// DeltaPoint is one row of the answer-delta streaming experiment
// (E-delta) at the fixed tree size: one publication flipping
// ChangedAnswers answers, consumed either through a Subscribe stream
// (DeltaNs: ApplyBatch + receive + fold the delta) or by a pull
// consumer re-draining the full answer set (RedrainNs: ApplyBatch +
// full Results() sweep). Both include the shared write-path cost, so
// Speedup is the end-to-end per-publication advantage of push.
// DrainNs isolates the pull consumer's pure read cost (the Results()
// sweep with ApplyBatch excluded): it is flat in ChangedAnswers — the
// pull consumer re-reads the whole answer set no matter how little
// changed — which is the claim the totals alone can't show once the
// write path dominates at large batch sizes.
type DeltaPoint struct {
	ChangedAnswers int     `json:"changed_answers"`
	DeltaNs        float64 `json:"delta_ns"`
	RedrainNs      float64 `json:"redrain_ns"`
	DrainNs        float64 `json:"drain_ns"`
	Speedup        float64 `json:"speedup"`
}

// DeltaScalePoint is one row of the scale sweep: the same 2-answer
// flip, on trees of growing size (and so growing total answer count).
// The pull consumer's cost tracks Answers; the subscriber's tracks the
// 2 changed answers plus the logarithmic write path.
type DeltaScalePoint struct {
	TreeNodes int     `json:"tree_nodes"`
	Answers   int     `json:"answers"`
	DeltaNs   float64 `json:"delta_ns"`
	RedrainNs float64 `json:"redrain_ns"`
	DrainNs   float64 `json:"drain_ns"`
	Speedup   float64 `json:"speedup"`
}

// DeltaBaseline is the machine-readable output of the answer-delta
// streaming experiment (written by cmd/benchtables as
// BENCH_delta.json). The claim: a Subscribe consumer pays per
// publication a cost proportional to the answers that CHANGED —
// computed by count-guided co-descent over the shared indexed boxes —
// while a pull consumer re-draining Results() pays for the whole
// answer set every time. Points sweeps the changed-answer count on a
// fixed ~20k-answer query; Scale pins the change at 2 answers and
// grows the answer set. The experiment is single-threaded; Env still
// anchors the baseline to its hardware.
type DeltaBaseline struct {
	Query     string `json:"query"`
	TreeNodes int    `json:"tree_nodes"`
	Answers   int    `json:"answers"`
	Env
	Points []DeltaPoint      `json:"points"`
	Scale  []DeltaScalePoint `json:"scale"`
}

// deltaPair is one measurement fixture: two engines over identical
// trees (same generator seed) and the same select:b query — one with a
// Subscribe stream attached, one consumed by full re-drains — plus the
// flip/unflip relabel batches that change exactly k answers per
// publication.
type deltaPair struct {
	push    oneQuery
	pull    oneQuery
	ch      <-chan engine.Delta
	answers int
}

func newDeltaPair(n int, seed int64) deltaPair {
	build := func() oneQuery {
		ut, err := workload.Tree(workload.ShapeRandom, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			panic(err)
		}
		return newOneQuery(ut, tva.SelectLabel([]tree.Label{"a", "b", "c"}, "b", 0), engine.Options{})
	}
	p := deltaPair{push: build(), pull: build()}
	ch, err := p.push.Subscribe(p.push.id)
	if err != nil {
		panic(err)
	}
	p.ch = ch
	<-ch // the seed resync; from here every recv is a per-publication delta
	p.answers = p.push.snap().Count()
	return p
}

// batches builds the flip and unflip relabel batches for k changed
// answers: k/2 b-nodes leave the answer set (b→a) and k/2 a-nodes
// join it (a→b), so the answer count is stable and each publication
// changes exactly k answers. Applying flip then unflip returns the
// tree to its base state.
func (p deltaPair) batches(k int, rng *rand.Rand) (flip, unflip []engine.Update) {
	var as, bs []tree.NodeID
	for _, nd := range p.push.Tree().Nodes() {
		switch nd.Label {
		case "a":
			as = append(as, nd.ID)
		case "b":
			bs = append(bs, nd.ID)
		}
	}
	if k/2 > len(as) || k/2 > len(bs) {
		panic(fmt.Sprintf("tree too small for k=%d (%d a-nodes, %d b-nodes)", k, len(as), len(bs)))
	}
	rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
	rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	for _, id := range bs[:k/2] {
		flip = append(flip, engine.Update{Op: engine.OpRelabel, Node: id, Label: "a"})
		unflip = append(unflip, engine.Update{Op: engine.OpRelabel, Node: id, Label: "b"})
	}
	for _, id := range as[:k/2] {
		flip = append(flip, engine.Update{Op: engine.OpRelabel, Node: id, Label: "b"})
		unflip = append(unflip, engine.Update{Op: engine.OpRelabel, Node: id, Label: "a"})
	}
	return flip, unflip
}

// measure times one changed-answer count k on the pair: DeltaNs is the
// median of ApplyBatch + receiving and folding the delta on the push
// engine; RedrainNs is the median of ApplyBatch + a full Results()
// drain on the pull engine. reps must be even so the alternating
// flip/unflip batches leave both trees in their base state.
func (p deltaPair) measure(k, reps int, rng *rand.Rand) DeltaPoint {
	flip, unflip := p.batches(k, rng)
	alt := func(i int) []engine.Update {
		if i%2 == 0 {
			return flip
		}
		return unflip
	}

	// Warm both engines (and prove the flip changes k answers).
	snap, _, err := p.push.ApplyBatch(flip)
	if err != nil {
		panic(err)
	}
	changed := 0
	for d := range p.ch {
		if d.Resync != nil {
			panic("resync on a promptly-drained subscription")
		}
		changed += len(d.Added) + len(d.Removed)
		if d.Version >= snap.Version() {
			break
		}
	}
	if changed != k {
		panic(fmt.Sprintf("warm-up flip changed %d answers, want %d", changed, k))
	}
	if _, _, err := p.push.ApplyBatch(unflip); err != nil {
		panic(err)
	}
	for d := range p.ch {
		if d.Version >= p.push.snap().Version() {
			break
		}
	}
	if _, _, err := p.pull.ApplyBatch(flip); err != nil {
		panic(err)
	}
	if _, _, err := p.pull.ApplyBatch(unflip); err != nil {
		panic(err)
	}

	i := 0
	pt := DeltaPoint{ChangedAnswers: k}
	pt.DeltaNs = medianNs(reps, func() {
		s, _, err := p.push.ApplyBatch(alt(i))
		if err != nil {
			panic(err)
		}
		i++
		n := 0
		for d := range p.ch {
			n += len(d.Added) + len(d.Removed)
			if d.Version >= s.Version() {
				break
			}
		}
		if n == 0 {
			panic("empty delta for a k-answer flip")
		}
	})
	// The pull side is timed by hand so one loop yields both the total
	// (ApplyBatch + drain) and the drain alone.
	totals := make([]time.Duration, 0, reps)
	drains := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		s, _, err := p.pull.ApplyBatch(alt(r))
		if err != nil {
			panic(err)
		}
		t1 := time.Now()
		got := 0
		for range s.Query(p.pull.id).Results() {
			got++
		}
		t2 := time.Now()
		if got != p.answers {
			panic(fmt.Sprintf("re-drain saw %d answers, want %d", got, p.answers))
		}
		totals = append(totals, t2.Sub(t0))
		drains = append(drains, t2.Sub(t1))
	}
	pt.RedrainNs = float64(median(totals).Nanoseconds())
	pt.DrainNs = float64(median(drains).Nanoseconds())
	pt.Speedup = pt.RedrainNs / pt.DeltaNs
	return pt
}

// Delta measures the answer-delta streaming experiment: the
// changed-answer sweep k ∈ {2, 64, 2048} on a fixed tree, then the
// scale sweep (k = 2, growing trees).
func Delta(quick bool) DeltaBaseline {
	n := 60000 // ~n/3 b-nodes ⇒ ~20k answers
	ks := []int{2, 64, 2048}
	scaleNs := []int{15000, 60000, 240000}
	reps := 8
	if quick {
		// Quick trees hold ~3k answers, so the top k is capped where the
		// changed set is still a small fraction of the answer set —
		// otherwise the delta rightly approaches the full drain.
		n, reps = 9000, 4
		ks = []int{2, 64, 512}
		scaleNs = []int{4000, 16000}
	}
	rng := rand.New(rand.NewSource(191))

	p := newDeltaPair(n, 191)
	base := DeltaBaseline{
		Query:     "select:b",
		TreeNodes: n,
		Answers:   p.answers,
		Env:       currentEnv(),
	}
	for _, k := range ks {
		base.Points = append(base.Points, p.measure(k, reps, rng))
	}
	p.push.Unregister(p.push.id)

	for _, sn := range scaleNs {
		sp := newDeltaPair(sn, 191+int64(sn))
		pt := sp.measure(2, reps, rng)
		base.Scale = append(base.Scale, DeltaScalePoint{
			TreeNodes: sn,
			Answers:   sp.answers,
			DeltaNs:   pt.DeltaNs,
			RedrainNs: pt.RedrainNs,
			DrainNs:   pt.DrainNs,
			Speedup:   pt.Speedup,
		})
		sp.push.Unregister(sp.push.id)
	}
	return base
}

// Table renders the changed-answer sweep for the benchtables output.
func (b DeltaBaseline) Table() Table {
	t := Table{
		ID:     "E-delta",
		Title:  fmt.Sprintf("Answer-delta streaming: per-publication cost, %d answers (%d nodes)", b.Answers, b.TreeNodes),
		Claim:  "a Subscribe consumer pays per publication for the answers that changed; a pull consumer re-draining Results() pays for the whole answer set",
		Header: []string{"changed answers", "delta (push)", "re-drain (pull)", "drain only", "speedup"},
	}
	for _, p := range b.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.ChangedAnswers),
			dur(time.Duration(p.DeltaNs)),
			dur(time.Duration(p.RedrainNs)),
			dur(time.Duration(p.DrainNs)),
			fmt.Sprintf("%.1fx", p.Speedup),
		})
	}
	return t
}

// ScaleTable renders the scale sweep for the benchtables output.
func (b DeltaBaseline) ScaleTable() Table {
	t := Table{
		ID:     "E-delta-scale",
		Title:  "Answer-delta streaming: 2-answer change vs growing answer sets",
		Claim:  "the pull consumer's per-publication cost grows with the answer set; the subscriber's stays near-flat (change + logarithmic write path)",
		Header: []string{"nodes", "answers", "delta (push)", "re-drain (pull)", "drain only", "speedup"},
	}
	for _, p := range b.Scale {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.TreeNodes),
			fmt.Sprintf("%d", p.Answers),
			dur(time.Duration(p.DeltaNs)),
			dur(time.Duration(p.RedrainNs)),
			dur(time.Duration(p.DrainNs)),
			fmt.Sprintf("%.1fx", p.Speedup),
		})
	}
	return t
}
