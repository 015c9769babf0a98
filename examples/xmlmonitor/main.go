// Command xmlmonitor maintains SEVERAL standing monitors over one
// mutating XML-like document — the fan-out scenario the paper's
// introduction motivates: one update stream, many subscribers. The
// monitors share a single QuerySet engine, so the term maintenance of
// every edit is paid once; each monitor only adds its own logarithmic
// box repair. The session shows:
//
//   - an MSO monitor ("every figure without a caption", Corollary 8.3)
//     wired onto the PUSH API: a Subscribe stream delivers, per edit,
//     only the answers gained and lost — computed on the write path in
//     time proportional to the change, so the alerting cost of an edit
//     tracks the diff even when the document holds thousands of matches,
//   - a path monitor ("figures directly under a section", compiled to a
//     compact nondeterministic automaton),
//   - a monitor REGISTERED LATE, halfway through the session, against
//     the already-edited document (it answers as if it had been standing
//     from the start),
//   - a DUPLICATE subscriber: a second dashboard registering the same
//     caption query is deduped onto the standing pipeline by the
//     multi-query optimizer (refcounted — its later departure retires
//     nothing),
//   - unregistering a monitor while the others keep serving.
//
// The bulk-grow phase uses the engine's batched updates: 500
// figure+caption pairs are published as one MultiSnapshot covering every
// monitor.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	enumtrees "repro"
)

var alpha = []enumtrees.Label{"doc", "sec", "par", "fig", "caption"}

func reportUncaptioned(w io.Writer, snap *enumtrees.Snapshot, t *enumtrees.Tree) {
	n := 0
	for asg := range snap.Results() {
		node := t.Node(asg[0].Node)
		fmt.Fprintf(w, "  uncaptioned figure in section node %d (parent %d)\n",
			asg[0].Node, node.Parent.ID)
		n++
	}
	if n == 0 {
		fmt.Fprintln(w, "  all figures captioned ✓")
	}
}

func reportCount(w io.Writer, name string, snap *enumtrees.Snapshot) {
	fmt.Fprintf(w, "  [%s] %d match(es)\n", name, snap.Count())
}

// watchDeltas drains the uncaptioned monitor's Subscribe stream up to
// the just-published version, printing only what CHANGED: a figure that
// lost its caption is gained, a figure that got one is resolved. The
// first few of each are shown by node; the footer carries the totals.
func watchDeltas(w io.Writer, ch <-chan enumtrees.Delta, target uint64) {
	const show = 3
	adds, rems := 0, 0
	for v := uint64(0); v < target; {
		d, ok := <-ch
		if !ok {
			return
		}
		if d.Resync != nil {
			fmt.Fprintf(w, "  [delta] resynced at v%d (%d uncaptioned)\n", d.Version, d.Resync.Count())
		}
		for _, a := range d.Added {
			if adds < show {
				fmt.Fprintf(w, "  [delta] +uncaptioned fig node %d\n", a[0].Node)
			}
			adds++
		}
		for _, a := range d.Removed {
			if rems < show {
				fmt.Fprintf(w, "  [delta] -uncaptioned fig node %d\n", a[0].Node)
			}
			rems++
		}
		v = d.Version
	}
	if adds > show {
		fmt.Fprintf(w, "  [delta]  … %d more gained\n", adds-show)
	}
	if rems > show {
		fmt.Fprintf(w, "  [delta]  … %d more resolved\n", rems-show)
	}
	fmt.Fprintf(w, "  [delta] %d gained, %d resolved\n", adds, rems)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Φ(x): x is a fig node with no caption child.
	phi := enumtrees.Conj(
		enumtrees.HasLabel{X: 0, Label: "fig"},
		enumtrees.Not{F: enumtrees.Exists{X: 1, F: enumtrees.Conj(
			enumtrees.Sing{X: 1},
			enumtrees.HasLabel{X: 1, Label: "caption"},
			enumtrees.Child{X: 0, Y: 1},
		)}},
	)
	q, err := enumtrees.CompileMSOFirstOrder(phi, alpha, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "compiled MSO query: %d automaton states\n", q.NumStates)

	t, err := enumtrees.ParseTree(
		"(doc (sec (par) (fig (caption))) (sec (fig) (par (fig (caption)))))")
	if err != nil {
		return err
	}

	// One QuerySet serves every monitor; the term work of each edit below
	// is shared by all of them.
	qs := enumtrees.NewQuerySet(t)
	uncap, err := qs.Register(q, enumtrees.Options{})
	if err != nil {
		return err
	}
	secFigs, err := qs.Register(
		enumtrees.MustCompilePath("/doc/sec/fig", alpha, 0), enumtrees.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "standing monitors: %d (uncaptioned figures, /doc/sec/fig)\n", len(qs.Queries()))

	m := qs.Snapshot()
	fmt.Fprintln(w, "initial document:", t)
	reportUncaptioned(w, m.Query(uncap), t)
	reportCount(w, "/doc/sec/fig", m.Query(secFigs))

	// The uncaptioned monitor goes PUSH: from here on it never re-reads
	// its answer set — each publication delivers only the answers gained
	// and lost. The subscription's first delta is the base resync (the
	// base was just printed above, so it is consumed and dropped).
	uncapCh, err := qs.Subscribe(uncap)
	if err != nil {
		return err
	}
	<-uncapCh

	// An editing session: captions appear and disappear, figures are
	// added; after each edit every standing monitor re-answers instantly
	// from the same MultiSnapshot.
	uncaptioned := enumtrees.InvalidNode
	for _, n := range t.Nodes() {
		if n.Label == "fig" && n.IsLeaf() {
			uncaptioned = n.ID
		}
	}
	fmt.Fprintln(w, "\nedit: caption the bare figure")
	m, _, err = qs.ApplyBatch([]enumtrees.Update{
		{Op: enumtrees.OpInsertFirstChild, Node: uncaptioned, Label: "caption"},
	})
	if err != nil {
		return err
	}
	watchDeltas(w, uncapCh, m.Version())
	reportCount(w, "/doc/sec/fig", m.Query(secFigs))

	fmt.Fprintln(w, "\nedit: grow the document with 500 random captioned figures (batched)")
	rng := rand.New(rand.NewSource(42))
	secs := []enumtrees.NodeID{}
	for _, n := range t.Nodes() {
		if n.Label == "sec" {
			secs = append(secs, n.ID)
		}
	}
	// Figures go in as one batch (one publication for all 500, across all
	// monitors); the captions, whose parents are only known after that
	// batch, as a second one.
	figBatch := make([]enumtrees.Update, 500)
	for i := range figBatch {
		figBatch[i] = enumtrees.Update{
			Op:    enumtrees.OpInsertFirstChild,
			Node:  secs[rng.Intn(len(secs))],
			Label: "fig",
		}
	}
	mFigs, figIDs, err := qs.ApplyBatch(figBatch)
	if err != nil {
		return err
	}
	// One publication, 500 new uncaptioned figures: the subscriber gets
	// them as ONE delta, without re-reading the other 500+ answers.
	watchDeltas(w, uncapCh, mFigs.Version())
	capBatch := make([]enumtrees.Update, len(figIDs))
	for i, fig := range figIDs {
		capBatch[i] = enumtrees.Update{Op: enumtrees.OpInsertFirstChild, Node: fig, Label: "caption"}
	}
	fmt.Fprintln(w, "edit: caption them all (batched)")
	m, _, err = qs.ApplyBatch(capBatch)
	if err != nil {
		return err
	}
	watchDeltas(w, uncapCh, m.Version())
	reportCount(w, "/doc/sec/fig", m.Query(secFigs))
	lastFig := figIDs[len(figIDs)-1]

	// A monitor subscribed mid-session: captions anywhere in the
	// document. It is built against the CURRENT version — the 1000+
	// nodes inserted above included — without disturbing the other
	// monitors' structures.
	fmt.Fprintln(w, "\nsubscribe late: caption monitor joins after the bulk growth")
	caps, err := qs.Register(enumtrees.SelectLabel(alpha, "caption", 0), enumtrees.Options{})
	if err != nil {
		return err
	}
	m = qs.Snapshot()
	reportCount(w, "captions", m.Query(caps))

	// A second dashboard subscribes the SAME caption query. The
	// multi-query optimizer recognizes the content-equal automaton and
	// dedupes the registration onto the standing caption pipeline — no
	// construction walk, no extra repair on future edits.
	fmt.Fprintln(w, "\nsubscribe twin: a second dashboard wants the same caption monitor")
	capsTwin, err := qs.Register(enumtrees.SelectLabel(alpha, "caption", 0), enumtrees.Options{})
	if err != nil {
		return err
	}
	est := qs.Stats()
	fmt.Fprintf(w, "  deduped: %d pipelines serve %d monitors (%d registration(s) deduped)\n",
		est.Pipelines, est.Queries, est.RegistrationsDeduped)
	reportCount(w, "captions (twin)", qs.Snapshot().Query(capsTwin))

	fmt.Fprintln(w, "\nedit: delete one caption deep in the document")
	capID := enumtrees.InvalidNode
	for c := t.Node(lastFig).FirstChild; c != nil; c = c.NextSib {
		if c.Label == "caption" {
			capID = c.ID
		}
	}
	m, _, err = qs.ApplyBatch([]enumtrees.Update{{Op: enumtrees.OpDelete, Node: capID}})
	if err != nil {
		return err
	}
	watchDeltas(w, uncapCh, m.Version())
	reportCount(w, "/doc/sec/fig", m.Query(secFigs))
	reportCount(w, "captions", m.Query(caps))
	reportCount(w, "captions (twin)", m.Query(capsTwin))

	// The twin dashboard leaves. Its registration only held a refcount on
	// the shared caption pipeline, so unregistering it retires nothing:
	// the original caption monitor keeps serving the same boxes.
	fmt.Fprintln(w, "\nunsubscribe: twin dashboard leaves (shared pipeline stays)")
	if err := qs.Unregister(capsTwin); err != nil {
		return err
	}
	reportCount(w, "captions", qs.Snapshot().Query(caps))

	// Unsubscribe the path monitor: unregistration itself publishes the
	// shrunk set, and the remaining monitors keep serving.
	fmt.Fprintln(w, "\nunsubscribe: /doc/sec/fig monitor leaves")
	if err := qs.Unregister(secFigs); err != nil {
		return err
	}
	m = qs.Snapshot()
	fmt.Fprintf(w, "  monitors standing: %d (snapshot v%d)\n", m.Len(), m.Version())
	reportUncaptioned(w, m.Query(uncap), t)

	st := m.Query(uncap).Stats()
	fmt.Fprintf(w, "\nfinal: %d nodes, %d boxes, width %d, %d boxes rebuilt over the session\n",
		t.Size(), st.Boxes, st.CircuitWidth, st.BoxesRebuilt)
	return nil
}
